"""Command-line front end.

Subcommands:
  basis      list the symmetric-sector basis for a given Z
  spectrum   leading-block eigenvalues and the stationary state (JSON)
  propagate  observables along a trajectory on a uniform tau grid
  verify     run the cross-validation battery

Exit codes: 0 success, 1 failed verification or solver breakdown, 2 usage
error.  Floats are serialized with repr (shortest round-trip) so identical
configurations produce byte-identical files; CSV uses ',' separators, '.'
decimals and LF line endings.  The environment variable DICKE4_ORACLE_LIMIT
overrides the dense-reconstruction size cap; a value that is not an integer
>= 1 is a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from . import dense_oracle as do
from . import verification
from .lindblad_solver import ModelParams, spectrum, trajectory, truncated_dicke_propagate
from .observables import (atomic_inversion, bell_initial, ghz_initial,
                          matrix_entropy, von_neumann_entropy)
from .symmetric_sector import (Config, SymmetricVector, basis_configs, embed_dense,
                               multiplicity, qn_from_config, qnum, sector_dimension)

OBSERVABLE_NAMES = ("trace", "inversion", "entropy")
MODELS = ("symmetric", "dicke-truncated", "dense-oracle")


def _fmt(x) -> str:
    return repr(float(x))


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_observables(text: str) -> list:
    names = []
    for raw in text.split(","):
        name = raw.strip()
        if name not in OBSERVABLE_NAMES:
            raise ValueError(f"unknown observable {name!r} "
                             f"(choose from {', '.join(OBSERVABLE_NAMES)})")
        if name not in names:
            names.append(name)
    if not names:
        raise ValueError("no observables requested")
    return names


def _parse_initial(text: str, z: int | None):
    """Returns (kind, payload, z).  kind in {bell, ghz, dicke, config}."""
    if z is not None and z < 1:
        raise ValueError(f"need at least one site, got z={z}")
    if text == "bell":
        if z not in (None, 2):
            raise ValueError("initial 'bell' fixes z=2")
        return "bell", None, 2
    if text == "ghz":
        if z not in (None, 3):
            raise ValueError("initial 'ghz' fixes z=3")
        return "ghz", None, 3
    if text.startswith("dicke:"):
        if z is None:
            raise ValueError("--z is required with initial dicke:<q3>")
        try:
            q3 = Fraction(text[len("dicke:"):])
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse {text!r}: {exc}") from None
        if abs(q3) > Fraction(z, 2) or (q3 + Fraction(z, 2)).denominator != 1:
            raise ValueError(f"q3={q3} is not a spin projection of z={z} sites")
        return "dicke", q3, z
    if text.startswith("config:"):
        parts = text[len("config:"):].split(",")
        if len(parts) != 4:
            raise ValueError("initial config:<alpha>,<beta>,<gamma>,<delta> "
                             "needs four counts")
        counts = []
        for part in parts:
            if not part.strip().isdigit():
                raise ValueError(f"bad occupation count {part!r}")
            counts.append(int(part))
        cfg = Config(*counts)
        if cfg.z < 1:
            raise ValueError("config must contain at least one site")
        if z not in (None, cfg.z):
            raise ValueError(f"--z {z} conflicts with config of {cfg.z} sites")
        return "config", cfg, cfg.z
    raise ValueError(f"unrecognized initial state {text!r} "
                     "(bell | ghz | dicke:<q3> | config:<a>,<b>,<g>,<d>)")


def _symmetric_initial(kind: str, payload, z: int) -> SymmetricVector:
    if kind == "bell":
        return bell_initial()
    if kind == "ghz":
        return ghz_initial()
    if kind == "dicke":
        return SymmetricVector.from_components(
            z, {qnum(Fraction(z, 2), payload, 0): 1})
    return SymmetricVector.from_components(z, {qn_from_config(payload): 1})


def _collective_initial(kind: str, payload, z: int):
    if kind == "bell":
        return (0, 0)
    if kind == "ghz":
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = rho[3, 3] = 0.5
        rho[0, 3] = rho[3, 0] = -0.5
        return rho
    if kind == "dicke":
        return (payload, payload)
    raise ValueError("config initial states are not representable "
                     "in the collective model")


def _dense_initial(kind: str, payload, z: int) -> np.ndarray:
    if kind == "bell":
        psi = do.dicke_state_dense(2, 0)
        return np.outer(psi, psi.conj())
    if kind == "ghz":
        psi = np.zeros(8, dtype=complex)
        psi[0] = 1.0 / np.sqrt(2.0)     # |111>
        psi[-1] = -1.0 / np.sqrt(2.0)   # |000>
        return np.outer(psi, psi.conj())
    if kind == "dicke":
        return embed_dense(z, qnum(Fraction(z, 2), payload, 0))
    return embed_dense(z, qn_from_config(payload))


def cmd_basis(args) -> int:
    z = args.z
    rows = [(qn_from_config(cfg), cfg, multiplicity(cfg),
             1 if cfg.gamma == 0 and cfg.delta == 0 else 0) for cfg in basis_configs(z)]
    if args.format == "json":
        payload = {
            "z": z,
            "dimension": sector_dimension(z),
            "states": [{"q": str(qn.q), "q3": str(qn.q3), "sigma3": str(qn.sigma3),
                        "alpha": cfg.alpha, "beta": cfg.beta,
                        "gamma": cfg.gamma, "delta": cfg.delta,
                        "multiplicity": mult, "trace": flag}
                       for qn, cfg, mult, flag in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = ["q,q3,sigma3,alpha,beta,gamma,delta,multiplicity,trace"]
        for qn, cfg, mult, flag in rows:
            lines.append(f"{qn.q},{qn.q3},{qn.sigma3},{cfg.alpha},{cfg.beta},"
                         f"{cfg.gamma},{cfg.delta},{mult},{flag}")
        lines.append(f"# dimension = {sector_dimension(z)}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def cmd_spectrum(args) -> int:
    p = ModelParams(z=args.z, s=args.s)
    vals, stat = spectrum(p)
    q3_values = [Fraction(args.z, 2) - k for k in range(args.z + 1)]
    payload = {
        "z": args.z,
        "s": float(args.s),
        "eigenvalues": [float(v) for v in vals],
        "stationary": [{"q3": str(q3), "coeff": float(c)}
                       for q3, c in zip(q3_values, stat.coeffs)],
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _grid(tau_max: float, steps: int) -> np.ndarray:
    if steps < 1:
        raise ValueError(f"steps={steps} must be >= 1")
    if not np.isfinite(tau_max):
        raise ValueError(f"tau-max={tau_max} must be finite and positive")
    if tau_max < 0 or (steps > 1 and tau_max <= 0):
        raise ValueError(f"tau-max={tau_max} must be positive")
    taus = np.linspace(0.0, tau_max, steps)
    if np.any(np.diff(taus) <= 0):     # a subnormal tau-max repeats a point
        raise ValueError("tau grid must be strictly increasing")
    return taus


def _trajectory(args, kind, payload, z, taus):
    """The chosen model's states along the grid and a {name: read-out} table
    to apply to each.  The two dense models differ only in where their
    states come from and in the diagonal of S3."""
    if args.model == "symmetric":
        v0 = _symmetric_initial(kind, payload, z)
        p = ModelParams(z=z, s=args.s, ctilde=args.ctilde)
        return (trajectory(v0, p, taus),
                {"trace": SymmetricVector.trace, "inversion": atomic_inversion,
                 "entropy": von_neumann_entropy})
    if args.model == "dicke-truncated":
        if args.ctilde != 0.5:
            raise ValueError("the collective model carries no dephasing term; "
                             "use --ctilde 0.5")
        rho0 = _collective_initial(kind, payload, z)
        states = truncated_dicke_propagate(z, args.s, rho0, taus)
        s3_diag = 0.5 * z - np.arange(z + 1)
    else:
        rho0 = _dense_initial(kind, payload, z)
        states = (do.dense_propagate(z, args.s, rho0, float(tau), ctilde=args.ctilde)
                  for tau in taus)
        s3_diag = do.collective_s3_diag(z)
    return states, {"trace": lambda rho: float(np.real(np.trace(rho))),
                    "inversion": lambda rho: float(np.real(np.diag(rho) @ s3_diag)),
                    "entropy": matrix_entropy}


def cmd_propagate(args) -> int:
    kind, payload, z = _parse_initial(args.initial, args.z)
    names = _parse_observables(args.observables)
    taus = _grid(args.tau_max, args.steps)
    states, readouts = _trajectory(args, kind, payload, z, taus)
    cols = {name: [] for name in names}
    for state in states:
        for name in names:
            cols[name].append(float(readouts[name](state)))

    if args.format == "json":
        payload = {
            "z": z, "s": float(args.s), "ctilde": float(args.ctilde),
            "model": args.model, "initial": args.initial,
            "taus": taus.tolist(), "values": cols,
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = ["tau," + ",".join(names)]
        for i, tau in enumerate(taus):
            lines.append(",".join([_fmt(tau)] + [_fmt(cols[n][i]) for n in names]))
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def cmd_verify(args) -> int:
    results = verification.run_all(z_max=args.z_max, seed=args.seed,
                                   words_per_z=args.words)
    lines = [f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail} ({r.seconds:.2f}s)"
             for r in results]
    failed = [r for r in results if not r.passed]
    if failed:
        lines.append(f"{len(failed)} of {len(results)} checks FAILED")
    else:
        lines.append(f"all {len(results)} checks passed")
    _emit("\n".join(lines) + "\n", args.out)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicke4",
        description="Symmetric-sector Lindblad dynamics of Z qubits")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("basis", help="list the symmetric-sector basis")
    b.add_argument("--z", type=int, required=True, help="number of sites")
    b.add_argument("--format", choices=("csv", "json"), default="csv")
    b.add_argument("--out", help="output path (default: stdout)")
    b.set_defaults(func=cmd_basis)

    s = sub.add_parser("spectrum",
                       help="leading-block eigenvalues and stationary state")
    s.add_argument("--z", type=int, required=True)
    s.add_argument("--s", type=float, default=0.0, help="pumping weight")
    s.add_argument("--out")
    s.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("propagate", help="observables along a trajectory")
    p.add_argument("--z", type=int, help="number of sites (inferred for "
                   "bell/ghz/config initial states)")
    p.add_argument("--s", type=float, default=0.0, help="pumping weight")
    p.add_argument("--ctilde", type=float, default=0.5,
                   help="dephasing ratio (1/2 = none; below 1/2 the "
                   "generator is not completely positive, so entropy can "
                   "fail on a negative eigenvalue)")
    p.add_argument("--initial", required=True,
                   help="bell | ghz | dicke:<q3> | config:<a>,<b>,<g>,<d>. "
                   "dicke:<q3> is the generalized basis state under the "
                   "symmetric and dense-oracle models but the pure collective "
                   "projector under dicke-truncated; the two coincide at "
                   "q3 = +-Z/2")
    p.add_argument("--tau-max", type=float, default=10.0)
    p.add_argument("--steps", type=int, default=200,
                   help="number of grid points including tau=0")
    p.add_argument("--observables", default="trace,inversion",
                   help="comma-separated: trace, inversion, entropy.  Entropy "
                   "runs at any Z for dicke: and config:<a>,<b>,0,0 starts, which "
                   "stay diagonal; other states stay under DICKE4_ORACLE_LIMIT")
    p.add_argument("--model", choices=MODELS, default="symmetric")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_propagate)

    v = sub.add_parser("verify", help="run the cross-validation battery")
    v.add_argument("--z-max", type=int, default=4)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--words", type=int, default=25,
                   help="random words per size in the algebra checks")
    v.add_argument("--out")
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, RuntimeError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
