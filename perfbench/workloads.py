"""The three workloads: seeded inputs, the timed operations, and the
checks applied to each operation's output.

A round is a fixed list of operations built once per run from the seed;
every run repeats whole rounds, so the share of failed operations is the
same in every run.  Operations call the program only through
`dicke4.cli.main` and the public library functions.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

from dicke4 import cli
from dicke4.dense_oracle import dicke_state_dense
from dicke4.lindblad_solver import ModelParams, evolve
from dicke4.observables import atomic_inversion, von_neumann_entropy
from dicke4.symmetric_sector import (Config, SymmetricVector, basis,
                                     extract_coefficients, qn_from_config)

import checks as ck

FAILED = "failed"     # the operation produced no usable result
TAU_MAX = 10.0
STEPS = 200


@dataclass
class Op:
    """One timed call into the program and the check of what it returned.

    `check` returns None (correct), FAILED, or the reason it is wrong.
    """
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


def _first(*reasons):
    return next((r for r in reasons if r is not None), None)


def _read_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    data = np.array([[float(x) for x in row] for row in rows[1:]])
    return {name: data[:, k] for k, name in enumerate(header)}


def _draw_s(rng, side: str) -> float:
    """A pumping weight strictly on one side of 1/2, so the ordering is fixed."""
    return float(rng.uniform(0.2, 0.4) if side == "lo" else rng.uniform(0.6, 0.8))


def _draw_ctilde(rng, dephased: bool) -> float:
    return float(rng.uniform(0.6, 1.4)) if dephased else 0.5


# ---------------------------------------------------------------- trajectory

def _propagate_op(out_dir: Path, z: int, q3: int, s: float, ctilde: float,
                  tau_max: float = TAU_MAX) -> Op:
    path = out_dir / "propagate.csv"
    argv = ["propagate", "--initial", f"dicke:{q3}", "--z", str(z),
            "--s", repr(s), "--out", str(path)]
    if ctilde != 0.5:
        argv[-2:-2] = ["--ctilde", repr(ctilde)]
    if tau_max != TAU_MAX:
        argv[-2:-2] = ["--tau-max", repr(tau_max)]

    def check(rc):
        if rc != 0:
            return FAILED
        cols = _read_csv(path)
        if not ck.all_finite(*cols.values()):
            return FAILED
        return _first(ck.check_grid(cols["tau"], tau_max, STEPS),
                      ck.check_trace(cols["trace"], 1.0),
                      ck.check_inversion(z, s, q3, cols["tau"], cols["inversion"]))

    name = f"propagate z={z} dicke:{q3} s={s:.3f} ctilde={ctilde:.3f}"
    if tau_max != TAU_MAX:
        name += f" tau-max={tau_max:g}"
    return Op(name, lambda: cli.main(argv), check)


def _coherence_op(z: int, s: float, ctilde: float) -> Op:
    """evolve from config:0,0,Z,0, the q = 0 coherence |1..1><0..0|-type start."""
    qn = qn_from_config(Config(0, 0, z, 0))
    v0 = SymmetricVector.from_components(z, {qn: 1.0})
    slot = basis(z).index[qn]
    p = ModelParams(z=z, s=s, ctilde=ctilde)
    taus = np.linspace(0.0, TAU_MAX, STEPS)

    def check(states):
        coeffs = np.array([v.coeffs for v in states])
        if not ck.all_finite(coeffs):
            return FAILED
        return _first(ck.check_coherence_decay(z, ctilde, taus, coeffs, slot),
                      ck.check_trace([v.trace() for v in states], 0.0))

    return Op(f"evolve z={z} config:0,0,{z},0 s={s:.3f} ctilde={ctilde:.3f}",
              lambda: [evolve(v0, p, float(t)) for t in taus], check)


def _random_vector_op(rng, z: int, s: float, ctilde: float) -> Op:
    v0 = SymmetricVector(z, rng.normal(size=basis(z).dimension))
    p = ModelParams(z=z, s=s, ctilde=ctilde)
    taus = np.linspace(0.0, TAU_MAX, STEPS)
    pairs = [tuple(int(k) for k in rng.integers(1, STEPS // 2, size=2)) for _ in range(2)]

    def check(states):
        coeffs = np.array([v.coeffs for v in states])
        if not ck.all_finite(coeffs):
            return FAILED
        traces = [v.trace() for v in states]
        reasons = [ck.check_close(coeffs[0], v0.coeffs, "evolve(v, 0) = v"),
                   ck.check_close(traces, np.full(STEPS, v0.trace()), "trace conservation"),
                   ck.check_linear_inversion(z, s, taus, traces,
                                             [atomic_inversion(v) for v in states])]
        for i, j in pairs:
            reasons.append(ck.check_close(
                evolve(states[i], p, float(taus[j])).coeffs,
                evolve(v0, p, float(taus[i] + taus[j])).coeffs,
                f"semigroup law at t1={taus[i]:.3f}, t2={taus[j]:.3f}"))
        return _first(*reasons)

    return Op(f"evolve z={z} random s={s:.3f} ctilde={ctilde:.3f}",
              lambda: [evolve(v0, p, float(t)) for t in taus], check)


def trajectory_round(seed: int, out_dir: Path) -> list:
    rng = np.random.default_rng(seed)
    ops = []
    # (Z, start, side of s relative to 1/2, dephased?).  Starts and
    # orderings differ in cost: exp(c Q-) stops after one term on the
    # all-ground start, exp(a Q+) on the all-excited one.  Four operations
    # cost less and three more than the Z = 40 group, so the median
    # operation sits inside that group of near-equal cost, not at a gap.
    plan = [
        (20, +1, "lo", False), (20, 0, "hi", True), (20, -1, "hi", False),
        (40, +1, "lo", False), (40, 0, "hi", True), (40, -1, "hi", False),
        (60, -1, "lo", True), (60, +1, "hi", False),
    ]
    for z, sign, side, dephased in plan:
        ops.append(_propagate_op(out_dir, z, sign * z // 2, _draw_s(rng, side),
                                 _draw_ctilde(rng, dephased)))
    ops.append(_coherence_op(60, _draw_s(rng, "hi"), float(rng.uniform(0.5, 1.0))))
    ops.append(_random_vector_op(rng, 40, _draw_s(rng, "lo"), _draw_ctilde(rng, True)))
    # The long-horizon run overflows in propagate_bch from tau ~ 24 and
    # prints nan rows with exit 0; it counts as failed until that is fixed.
    ops.append(_propagate_op(out_dir, 60, 30, 0.4, 0.5, tau_max=40.0))
    return ops


# ------------------------------------------------------------------ readout

READOUT_Z = (6, 7, 8, 9)
# Which starts get an entropy trajectory at each Z.  At Z = 9 one dense
# reconstruction of a full vector costs ~2 s, so the random start stops at
# Z = 8.  The all-excited one starts at Z = 7: with it at Z = 6 as well, the
# median operation would sit at the gap below the Z = 7 extractions.
ENTROPY_Z = {"random-symmetric": (6, 7, 8), "all-excited": (7, 8, 9)}


def random_symmetric_pure_state(rng, z: int) -> np.ndarray:
    """|psi><psi| for a random unit vector in the spin-Z/2 (symmetric) subspace."""
    amp = rng.normal(size=z + 1) + 1j * rng.normal(size=z + 1)
    amp /= np.linalg.norm(amp)
    psi = sum(a * dicke_state_dense(z, Fraction(z, 2) - k) for k, a in enumerate(amp))
    return np.outer(psi, psi.conj())


def all_excited_state(z: int) -> np.ndarray:
    psi = dicke_state_dense(z, Fraction(z, 2))
    return np.outer(psi, psi.conj())


def _extract_op(z: int, rho: np.ndarray, label: str) -> Op:
    """The first extraction of a run is checked by the round trip
    to_dense(extract_coefficients(rho)) = rho; every later one must equal it."""
    first = {}

    def check(v):
        if not ck.all_finite(v.coeffs):
            return FAILED
        if not first:
            first["coeffs"] = v.coeffs.copy()
            first["verdict"] = ck.check_round_trip(v.to_dense(), rho)
        return first["verdict"] or ck.check_close(v.coeffs, first["coeffs"],
                                                  "repeat extraction")

    return Op(f"extract_coefficients z={z} {label}",
              lambda: extract_coefficients(z, rho), check)


def _entropy_op(z: int, v0: SymmetricVector, s: float, ctilde: float, tau_mid: float,
                label: str) -> Op:
    p = ModelParams(z=z, s=s, ctilde=ctilde)
    taus = (0.0, tau_mid, 30.0)

    def check(entropies):
        if not ck.all_finite(entropies):
            return FAILED
        bounds = None if all(-ck.TOL_ENTROPY <= e <= z + ck.TOL_ENTROPY for e in entropies) \
            else f"entropy {entropies} outside [0, Z]"
        if label == "all-excited":
            exact = ck.check_entropy_values(entropies, ck.product_entropy(z, s, taus),
                                            "all-excited start vs Z H2(s + (1-s)e^-tau)")
        else:
            exact = _first(
                ck.check_entropy_values(entropies[:1], [0.0], "pure start at tau=0"),
                ck.check_entropy_values(entropies[-1:], [z * ck.binary_entropy(s)],
                                        "stationary Z H2(s) at tau=30"))
        return _first(bounds, exact)

    return Op(f"entropy z={z} {label} s={s:.3f} ctilde={ctilde:.3f}",
              lambda: [von_neumann_entropy(evolve(v0, p, t)) for t in taus], check)


def _scenario_op(out_dir: Path, initial: str, s: float, tau_max: float, final_check) -> Op:
    path = out_dir / f"{initial}.csv"
    argv = ["propagate", "--initial", initial, "--s", repr(s), "--tau-max", repr(tau_max),
            "--observables", "trace,entropy", "--out", str(path)]

    def check(rc):
        if rc != 0:
            return FAILED
        cols = _read_csv(path)
        if not ck.all_finite(*cols.values()):
            return FAILED
        return _first(ck.check_grid(cols["tau"], tau_max, STEPS),
                      ck.check_trace(cols["trace"], 1.0),
                      ck.check_entropy_values(cols["entropy"][:1], [0.0], f"{initial} at tau=0"),
                      final_check(cols["entropy"]))

    return Op(f"propagate {initial} entropy s={s:g}", lambda: cli.main(argv), check)


def readout_round(seed: int, out_dir: Path) -> list:
    rng = np.random.default_rng(seed)
    ops = []
    for z in READOUT_Z:
        starts = {"random-symmetric": random_symmetric_pure_state(rng, z),
                  "all-excited": all_excited_state(z)}
        for label, rho in starts.items():
            ops.append(_extract_op(z, rho, label))
        for label, rho in starts.items():
            if z not in ENTROPY_Z[label]:
                continue
            v0 = extract_coefficients(z, rho)
            ops.append(_entropy_op(z, v0, float(rng.uniform(0.2, 0.8)),
                                   float(rng.uniform(0.5, 1.5)),
                                   float(rng.uniform(0.2, 3.0)), label))
    ops.append(_scenario_op(out_dir, "bell", 0.5, 30.0, ck.check_bell_limit))
    ops.append(_scenario_op(out_dir, "ghz", 0.0, 40.0, ck.check_ghz_return))
    return ops


# ------------------------------------------------------------------- verify

def verify_round(seed: int, out_dir: Path) -> list:
    path = out_dir / "verify.txt"
    argv = ["verify", "--seed", str(seed), "--out", str(path)]
    return [Op(f"verify --seed {seed}", lambda: cli.main(argv),
               lambda rc: ck.check_verify_report(rc, path.read_text()))]


ROUNDS = {
    "trajectory-large-z": trajectory_round,
    "readout-dense": readout_round,
    "verify-battery": verify_round,
}
