"""Tests of the benchmark itself: every reference check accepts a correct
output and rejects one perturbed value or one injected NaN, the operation
checks classify non-finite output as failed, and the metric names match
BENCHMARK.json.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import checks as ck
import setup_probe

setup_probe.use_checkout_source()

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

BENCHMARK = json.loads((setup_probe.ROOT / "BENCHMARK.json").read_text())
TAUS = np.linspace(0.0, 10.0, 200)


def _corruptions(arr):
    """One perturbed entry and one NaN, each in a fresh copy."""
    arr = np.array(arr, dtype=float)
    bumped = arr.copy()
    bumped[len(bumped) // 2] += 1e-6 * max(1.0, abs(bumped[len(bumped) // 2]))
    nan = arr.copy()
    nan[-1] = math.nan
    return bumped, nan


def _assert_rejects(check, good, *args):
    assert check(good, *args) is None
    for bad in _corruptions(good):
        assert check(bad, *args) is not None


@pytest.mark.parametrize("z,s,q3", [(20, 0.3, 10), (60, 0.7, -30), (40, 0.55, 0)])
def test_inversion_law_rejects_corruption(z, s, q3):
    law = ck.inversion_law(z, s, q3, TAUS)
    assert law[0] == pytest.approx(q3)
    assert law[-1] == pytest.approx(z * (s - 0.5), abs=1e-3 * z)
    _assert_rejects(lambda inv: ck.check_inversion(z, s, q3, TAUS, inv), law)


def test_trace_rejects_corruption():
    _assert_rejects(lambda t: ck.check_trace(t, 1.0), np.ones(200))
    _assert_rejects(lambda t: ck.check_trace(t, 0.0), np.zeros(200))


def test_linear_inversion_rejects_corruption():
    z, s, t = 40, 0.3, 2.5
    fixed = t * z * (s - 0.5)
    inv = fixed + (7.0 - fixed) * np.exp(-TAUS)
    traces = np.full(200, t)
    _assert_rejects(lambda i: ck.check_linear_inversion(z, s, TAUS, traces, i), inv)


def test_coherence_decay_rejects_corruption():
    z, ctilde, slot, dim = 60, 0.8, 3, 10
    coeffs = np.zeros((200, dim))
    coeffs[:, slot] = np.exp(-ctilde * z * TAUS)
    assert ck.check_coherence_decay(z, ctilde, TAUS, coeffs, slot) is None
    bumped = coeffs.copy()
    bumped[5, slot] *= 1 + 1e-6
    stray = coeffs.copy()
    stray[5, slot + 1] = 1e-300
    nan = coeffs.copy()
    nan[7, 0] = math.nan
    for bad in (bumped, stray, nan):
        assert ck.check_coherence_decay(z, ctilde, TAUS, bad, slot) is not None


def test_close_rejects_corruption():
    rng = np.random.default_rng(0)
    v = rng.normal(size=50)
    _assert_rejects(lambda got: ck.check_close(got, v, "semigroup"), v)


def test_round_trip_rejects_corruption():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    assert ck.check_round_trip(rho.copy(), rho) is None
    bumped = rho.copy()
    bumped[2, 3] += 1e-9
    nan = rho.copy()
    nan[0, 0] = math.nan
    for bad in (bumped, nan):
        assert ck.check_round_trip(bad, rho) is not None


def test_product_entropy_rejects_corruption():
    z, s, taus = 9, 0.3, (0.0, 0.7, 30.0)
    want = ck.product_entropy(z, s, taus)
    assert want[0] == 0.0
    assert want[-1] == pytest.approx(z * ck.binary_entropy(s))
    _assert_rejects(lambda got: ck.check_entropy_values(got, want, "product"), want)


def test_scenario_limits_reject_corruption():
    bell = 2.0 * (1.0 - np.exp(-np.linspace(0.0, 30.0, 200)))
    assert ck.check_bell_limit(bell) is None
    assert ck.check_bell_limit(bell[:-1].tolist() + [2.0 + 1e-6]) is not None
    assert ck.check_bell_limit(bell[:-1].tolist() + [math.nan]) is not None
    ghz = np.sin(np.linspace(0.0, math.pi, 200))
    assert ck.check_ghz_return(ghz) is None
    assert ck.check_ghz_return(ghz[:-1].tolist() + [1e-3]) is not None
    assert ck.check_ghz_return(ghz[:-1].tolist() + [math.nan]) is not None


def test_verify_report_rejects_a_failed_or_missing_check():
    good = "\n".join(f"PASS  c{k}: ok" for k in range(18)) + "\nall 18 checks passed\n"
    assert ck.check_verify_report(0, good) is None
    assert ck.check_verify_report(1, good) is not None
    assert ck.check_verify_report(0, good.replace("PASS  c3", "FAIL  c3")) is not None


def _write_propagate_csv(path, z, s, q3, tweak=None):
    inv = ck.inversion_law(z, s, q3, TAUS)
    trace = np.ones(200)
    if tweak:
        tweak(trace, inv)
    rows = ["tau,trace,inversion"] + [",".join(repr(float(x)) for x in row)
                                      for row in zip(TAUS, trace, inv)]
    path.write_text("\n".join(rows) + "\n")


def test_propagate_op_classifies_outputs(tmp_path):
    z, s, q3 = 20, 0.3, 10
    op = wl._propagate_op(tmp_path, z, q3, s, 0.5)
    path = tmp_path / "propagate.csv"
    _write_propagate_csv(path, z, s, q3)
    assert op.check(0) is None
    assert op.check(1) == wl.FAILED
    _write_propagate_csv(path, z, s, q3, lambda tr_, inv: inv.__setitem__(50, inv[50] + 1e-6))
    assert op.check(0) not in (None, wl.FAILED)
    _write_propagate_csv(path, z, s, q3, lambda tr_, inv: tr_.__setitem__(150, math.nan))
    assert op.check(0) == wl.FAILED


def test_metric_names_match_benchmark_json():
    assert set(m["name"] for m in BENCHMARK["end_to_end"]) == {
        "setup_s", "ops_per_s", "latency_s.p50", "peak_rss_mb"}
    metrics = tr.layer_metrics(tr.Tracer(), 0, 1, 0.5, 1.0, lambda z: 1)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(metrics)
    assert all(m["unit"] == metrics[m["name"]][1] for m in BENCHMARK["per_layer"])
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.ROUNDS)


def test_tracer_spans_nest_and_uninstall():
    from dicke4 import lindblad_solver, symmetric_sector
    t = tr.Tracer()
    t.install()
    try:
        v = symmetric_sector.SymmetricVector.from_components(3, {(1.5, 1.5, 0): 1.0})
        lindblad_solver.evolve(v, lindblad_solver.ModelParams(z=3, s=0.2), 0.5)
    finally:
        t.uninstall()
    key, z, dur, own = t.arrays()
    names = [t.keys[k] for k in key]
    assert "lindblad_solver.evolve" in names and "lindblad_solver.propagate_bch" in names
    assert np.all(own <= dur + 1e-12)
    evolve = names.index("lindblad_solver.evolve")
    assert own[evolve] < dur[evolve] and z[evolve] == 3
    assert not hasattr(lindblad_solver.evolve, "__wrapped__")
