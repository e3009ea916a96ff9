"""Slab propagator, block spectra, closed forms, collective model."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.sparse as sparse
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from dicke4 import lindblad_solver as ls
from dicke4.observables import atomic_inversion
from dicke4.symmetric_sector import (SymmetricVector, basis, enumerate_basis, qnum,
                                     sector_dimension)

taus_moderate = st.floats(min_value=0.0, max_value=5.0,
                          allow_nan=False, allow_infinity=False)
s_interior = st.floats(min_value=0.05, max_value=0.95,
                       allow_nan=False, allow_infinity=False)


def random_vector(z, rng):
    return SymmetricVector(z, np.array(
        [rng.gauss(0, 1) for _ in range(sector_dimension(z))]))


# -------------------------------------------------------------- parameters

def test_model_params_validation():
    ls.ModelParams(z=3, s=0.5)
    ls.ModelParams(z=np.int64(3), s=0.5)        # a Z read from a NumPy array
    with pytest.raises(ValueError):
        ls.ModelParams(z=0, s=0.5)
    with pytest.raises(ValueError):
        ls.ModelParams(z=2, s=1.5)
    with pytest.raises(ValueError):
        ls.ModelParams(z=2, s=0.5, ctilde=-0.1)
    with pytest.raises(ValueError):
        ls.ModelParams(z=2, s=0.5, ctilde=float("inf"))


# ------------------------------------------------------------- propagation

def test_bch_zero_time_is_identity():
    v = random_vector(3, random.Random(31))
    for s in (0.0, 0.7, 1.0):
        for ct in (0.0, 0.5, 2.0):
            out = ls.propagate_bch(v, ls.ModelParams(z=3, s=s, ctilde=ct), 0.0)
            assert np.array_equal(out.coeffs, v.coeffs)


def test_bch_domain_validation():
    v = SymmetricVector.from_components(2, {(1, 1, 0): 1.0})
    p = ls.ModelParams(z=2, s=0.5)
    for tau in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ls.propagate_bch(v, p, tau)


@given(s_interior, st.floats(min_value=0.0, max_value=8.0))
@settings(max_examples=200, deadline=None)
def test_bch_mirror_symmetry(s, tau):
    # swapping u <-> d exchanges damping and pumping: flipping q3 in every
    # slab maps the s-propagator onto the (1-s)-propagator
    b = basis(3)
    flip = np.array([b.index[qnum(q, -q3, s3)] for q, q3, s3 in b.states])
    v = random_vector(3, random.Random(int(tau * 100) + 7))
    left = ls.propagate_bch(v, ls.ModelParams(z=3, s=s, ctilde=0.8), tau).coeffs
    right = ls.propagate_bch(SymmetricVector(3, v.coeffs[flip]),
                             ls.ModelParams(z=3, s=1.0 - s, ctilde=0.8), tau).coeffs
    assert np.abs(left - right[flip]).max() <= 1e-13 * max(1.0, np.abs(left).max())


def test_propagation_survives_where_combined_coefficients_degenerate():
    # at s = 0 and s = 1 with large tau one pivot 1 - w f of the
    # three-exponential form rounds to zero; the slab propagator does not
    v = SymmetricVector.from_components(2, {(1, 1, 0): 1.0})
    out = ls.propagate_bch(v, ls.ModelParams(z=2, s=0.0), 40.0)
    assert out.coeffs[basis(2).index[qnum(1, -1, 0)]] == pytest.approx(1.0, abs=1e-12)
    v = SymmetricVector.from_components(2, {(1, -1, 0): 1.0})
    out = ls.propagate_bch(v, ls.ModelParams(z=2, s=1.0), 40.0)
    assert out.coeffs[basis(2).index[qnum(1, 1, 0)]] == pytest.approx(1.0, abs=1e-12)


def test_ladder_matrices_entries():
    qp, qm = ls.ladder_matrices(2)
    b = basis(2)
    i_top = b.index[qnum(1, 1, 0)]
    i_mid = b.index[qnum(1, 0, 0)]
    assert qm[i_mid, i_top] == 2.0     # two excited sites to lower
    assert qp[i_top, i_mid] == 1.0
    assert qp[:, i_top].nnz == 0       # annihilated at the block edge


def _label_route_oracles(p):
    """Q+, Q- and the sector generator built from labels: each image label is
    looked up in `basis(z).index`, q and q3 come from the labels."""
    labels = enumerate_basis(p.z)
    index = basis(p.z).index
    qp, qm = np.zeros((2, len(labels), len(labels)))
    for j, (q, q3, s3) in enumerate(labels):
        if q3 < q:
            qp[index[qnum(q, q3 + 1, s3)], j] = float(q - q3)
        if q3 > -q:
            qm[index[qnum(q, q3 - 1, s3)], j] = float(q + q3)
    q = np.array([float(qn.q) for qn in labels])
    q3 = np.array([float(qn.q3) for qn in labels])
    diag = (-0.5 * p.z - (1.0 - 2.0 * p.s) * q3
            + (1.0 - 2.0 * p.ctilde) * (0.5 * p.z - q))
    return qp, qm, np.diag(diag) + (1.0 - p.s) * qm + p.s * qp


@pytest.mark.parametrize("z", range(1, 9))
def test_sector_oracles_match_the_label_route_exactly(z):
    for s in (0.0, 0.3, 1.0):
        for ct in (0.5, 2.0):
            p = ls.ModelParams(z=z, s=s, ctilde=ct)
            qp, qm, lv = _label_route_oracles(p)
            got_qp, got_qm = ls.ladder_matrices(z)
            assert np.array_equal(got_qp.toarray(), qp)
            assert np.array_equal(got_qm.toarray(), qm)
            assert np.array_equal(ls.liouvillian_matrix(p).toarray(), lv), (s, ct)


def test_sector_oracles_build_no_label_table():
    basis.cache_clear()
    ls.ladder_matrices.cache_clear()
    ls.liouvillian_matrix(ls.ModelParams(z=40, s=0.3))
    assert basis.cache_info().currsize == 0


def _three_exponentials(v, p, tau, minus_first):
    """The paper's factorized propagator at ctilde = 1/2, by dense expm:
    e^(-Z tau/2) exp(a Q+) exp(b Q3) exp(c Q-) with pivot 1 - s f(tau), or
    the mirror ordering exp(d Q-) exp(e Q3) exp(g Q+) with pivot
    1 - (1-s) f(tau)."""
    qp, qm = (m.toarray() for m in ls.ladder_matrices(p.z))
    weight, first, last, sign = ((p.s, qm, qp, 1.0) if minus_first
                                 else (1.0 - p.s, qp, qm, -1.0))
    f = -math.expm1(-tau)
    pivot = 1.0 - weight * f
    w = expm((1.0 - weight) * f / pivot * first) @ v.coeffs
    q3 = np.array([float(qn.q3) for qn in enumerate_basis(p.z)])
    w = w * np.exp(sign * (-tau - 2.0 * math.log(pivot)) * q3)
    return math.exp(-0.5 * p.z * tau) * (expm(weight * f / pivot * last) @ w)


@pytest.mark.parametrize("z", [1, 2, 3, 4, 5])
def test_orderings_agree(z):
    # both orderings of the paper's factorization reproduce the propagator
    rng = random.Random(40 + z)
    v = random_vector(z, rng)
    for s in (0.1, 0.5, 0.9):
        p = ls.ModelParams(z=z, s=s)
        for tau in (0.3, 1.0, 3.0):
            got = ls.propagate_bch(v, p, tau).coeffs
            scale = max(1.0, np.abs(got).max())
            for minus_first in (True, False):
                ref = _three_exponentials(v, p, tau, minus_first)
                assert np.abs(got - ref).max() <= 1e-12 * scale, (z, s, tau, minus_first)


@given(st.sampled_from([3, 20, 60]), s_interior, taus_moderate, taus_moderate)
@settings(max_examples=60, deadline=None)
def test_semigroup_property(z, s, tau1, tau2):
    rng = random.Random(int(s * 1000) + z)
    v = random_vector(z, rng)
    p = ls.ModelParams(z=z, s=s, ctilde=0.9)
    once = ls.evolve(v, p, tau1 + tau2)
    twice = ls.evolve(ls.evolve(v, p, tau1), p, tau2)
    assert np.abs(once.coeffs - twice.coeffs).max() <= 1e-12 * np.abs(v.coeffs).max()


def test_propagator_matches_matrix_exponential():
    # full-generator cross-check on the sector matrix, all slabs at once
    for z in (4, 20):
        rng = random.Random(47 + z)
        v = random_vector(z, rng)
        for s in (0.0, 0.3, 0.8, 1.0):
            for ct in (0.0, 0.5, 1.4):
                p = ls.ModelParams(z=z, s=s, ctilde=ct)
                lv = ls.liouvillian_matrix(p)
                for tau in (0.2, 1.0, 4.0):
                    expected = expm_multiply(lv * tau, v.coeffs.astype(float))
                    got = ls.evolve(v, p, tau).coeffs
                    gap = np.abs(got - expected).max() / np.abs(expected).max()
                    assert gap <= 1e-12, (z, s, ct, tau, gap)


# -------------------------------------------------------------- trajectory

def _complex_vector(z, rng):
    dim = sector_dimension(z)
    return SymmetricVector(z, rng.normal(size=dim) + 1j * rng.normal(size=dim))


def _relative_gap(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("z", [4, 20])
def test_trajectory_matches_expm_multiply_of_the_generator(z):
    v = _complex_vector(z, np.random.default_rng(61 + z))
    taus = np.linspace(0.0, 10.0, 200)
    for s in (0.3, 1.0):
        for ct in (0.5, 1.4):
            p = ls.ModelParams(z=z, s=s, ctilde=ct)
            oracle = expm_multiply(ls.liouvillian_matrix(p), v.coeffs, start=0.0,
                                   stop=10.0, num=200, endpoint=True)
            states = list(ls.trajectory(v, p, taus))
            assert len(states) == 200
            for k, (state, want) in enumerate(zip(states, oracle)):
                assert _relative_gap(state.coeffs, want) <= 1e-12, (s, ct, k)


@pytest.mark.parametrize("taus", [
    [0.0, 0.1, 0.35, 1.0, 2.7, 2.71, 9.0],      # non-uniform
    [3.0, 0.5, 7.25, 0.5, 1.0, 0.0, 4.0],       # unsorted
    [0.0, 1.5, 1.5, 1.5, 3.0, 3.0, 0.2, 0.2],   # repeated
    [2.5, 2.75, 3.0, 3.25, 3.5],                # not starting at 0
], ids=["non-uniform", "unsorted", "repeated", "offset"])
def test_trajectory_equals_per_tau_evolve_on_any_grid(taus):
    rng = np.random.default_rng(67)
    for z in (3, 20):
        v = _complex_vector(z, rng)
        p = ls.ModelParams(z=z, s=0.3, ctilde=0.8)
        states = list(ls.trajectory(v, p, taus))
        assert len(states) == len(taus)
        for tau, state in zip(taus, states):
            assert _relative_gap(state.coeffs, ls.evolve(v, p, tau).coeffs) <= 1e-13, (z, tau)


@pytest.mark.parametrize("z", [3, 20])
def test_trajectory_drift_over_ten_thousand_steps(z):
    # rounding drifts about linearly with the step count; compare as the
    # walk goes, since storing 10^4 states would cost gigabytes at large Z
    v = _complex_vector(z, np.random.default_rng(71 + z))
    p = ls.ModelParams(z=z, s=0.3, ctilde=0.8)
    taus = np.linspace(0.0, 40.0, 10 ** 4)
    sampled = set(np.linspace(0, len(taus) - 1, 25).astype(int).tolist())
    worst = 0.0
    for k, state in enumerate(ls.trajectory(v, p, taus)):
        if k in sampled:
            exact = ls.evolve(v, p, float(taus[k])).coeffs
            worst = max(worst, _relative_gap(state.coeffs, exact))
    assert k == len(taus) - 1
    assert worst <= 2e-12


def test_trajectory_builds_maps_once_per_step_length(monkeypatch):
    # one chain per walk, stacked over every distinct step length
    calls = []
    original = ls._slab_maps
    monkeypatch.setattr(ls, "_slab_maps",
                        lambda p, lengths, live: calls.append(lengths) or original(p, lengths, live))
    v = _complex_vector(6, np.random.default_rng(73))
    taus = np.linspace(0.0, 10.0, 200)
    list(ls.trajectory(v, ls.ModelParams(z=6, s=0.3), taus))
    assert len(calls) == 1
    assert sorted(calls[0]) == sorted(set(np.diff(taus).tolist()) | {0.0})
    assert len(calls[0]) == 11      # ten step lengths and the zero first step


def _one_length_chain(p, tau, live):
    """{n: (M_n(tau), e^(-ctilde m tau))}, grown for one step length at a
    time: the reference for the stacked chain."""
    f = -math.expm1(-tau)
    decay, pump = (1.0 - p.s) * f, p.s * f
    maps = {}
    mat = np.ones((1, 1))
    for n in range(max(live) + 1):
        if n:
            grown = np.zeros((n + 1, n + 1))
            moved = decay * mat
            grown[:-1, :-1] = mat - moved
            grown[1:, :-1] += moved
            raised = pump * mat[:, -1]
            grown[:-1, -1] = raised
            grown[1:, -1] += mat[:, -1] - raised
            mat = grown
        if n in live:
            maps[n] = mat, math.exp(-p.ctilde * (p.z - n) * tau)
    return maps


@pytest.mark.parametrize("z", [*range(1, 13), 40])
def test_stacked_slab_maps_match_the_one_length_chain_exactly(z):
    lengths = [0.0, 1e-3, 0.7, 40.0, 800.0]
    for s in (0.0, 0.3, 1.0):
        p = ls.ModelParams(z=z, s=s, ctilde=0.8)
        for live in ({z}, {0}, set(range(z + 1))):
            for chosen in (lengths, lengths[2:3]):      # stacked, and one length
                maps = ls._slab_maps(p, chosen, live)
                assert set(maps) == {(k, n) for k in range(len(chosen)) for n in live}
                for k, tau in enumerate(chosen):
                    want = _one_length_chain(p, tau, live)
                    for n in live:
                        mat, coherence = maps[k, n]
                        assert mat.shape == (n + 1, n + 1) and mat.flags.c_contiguous
                        assert np.array_equal(mat, want[n][0]), (s, tau, n)
                        assert coherence == want[n][1], (s, tau, n)


@pytest.mark.parametrize("label", [(10, 3, 0), (0, 0, 10)], ids=["dicke", "config:0,0,20,0"])
def test_trajectory_keeps_zero_slabs_exactly_zero(label):
    z = 20
    v = SymmetricVector.from_components(z, {label: 1.0})
    live = np.array([qn.q == label[0] for qn in enumerate_basis(z)])
    p = ls.ModelParams(z=z, s=0.3, ctilde=0.8)
    for state in ls.trajectory(v, p, np.linspace(0.0, 10.0, 50)):
        assert np.all(state.coeffs[~live] == 0.0)
        assert np.any(state.coeffs[live] != 0.0)


@pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
def test_trajectory_rejects_a_bad_tau_before_yielding_any_state(bad):
    v = SymmetricVector.from_components(3, {(Fraction(3, 2), Fraction(1, 2), 0): 1.0})
    walk = ls.trajectory(v, ls.ModelParams(z=3, s=0.3), [0.0, 1.0, bad, 2.0])
    with pytest.raises(ValueError, match="must be finite and >= 0"):
        next(walk)


def test_trace_is_conserved_for_any_dephasing():
    rng = random.Random(53)
    v = random_vector(4, rng)
    t0 = v.trace()
    for ct in (0.0, 0.5, 2.5):
        p = ls.ModelParams(z=4, s=0.7, ctilde=ct)
        assert ls.evolve(v, p, 3.0).trace() == pytest.approx(t0, abs=1e-10)


def _unit_trace_vector(z, rng):
    """Random sector vector whose leading (q = Z/2) slab is a probability
    vector, so the trace is 1; built without the label tables."""
    coeffs = rng.normal(size=sector_dimension(z))
    lead = np.abs(coeffs[:z + 1])
    coeffs[:z + 1] = lead / lead.sum()
    return SymmetricVector(z, coeffs)


@pytest.mark.parametrize("z", [30, 60, 100, 200])
def test_large_z_stays_finite_with_unit_trace(z):
    v = _unit_trace_vector(z, np.random.default_rng(z))
    for s in (0.0, 0.3, 0.5, 0.7, 1.0):
        for ct in (0.0, 0.5, 2.0):
            p = ls.ModelParams(z=z, s=s, ctilde=ct)
            for tau in (0.5, 40.0, 1e6):
                out = ls.evolve(v, p, tau).coeffs
                assert np.all(np.isfinite(out)), (s, ct, tau)
                # the trace is the sum over the leading slab
                assert abs(out[:z + 1].sum() - 1.0) <= 1e-12, (s, ct, tau)


def test_long_time_limit_is_binomial():
    z = 40
    v = _unit_trace_vector(z, np.random.default_rng(3))
    for s in (0.0, 0.3, 0.5, 1.0):
        stationary = np.array([math.comb(z, k) * s ** (z - k) * (1 - s) ** k
                               for k in range(z + 1)])
        for ct in (0.5, 2.0):
            for tau in (100.0, 1e6):
                out = ls.evolve(v, ls.ModelParams(z=z, s=s, ctilde=ct), tau).coeffs
                assert np.abs(out[:z + 1] - stationary).max() <= 1e-12
                assert np.abs(out[z + 1:]).max() <= 1e-12


def test_mismatched_sizes_rejected():
    v = SymmetricVector.from_components(2, {(1, 1, 0): 1.0})
    with pytest.raises(ValueError):
        ls.propagate_bch(v, ls.ModelParams(z=3, s=0.0), 1.0)


def test_dephasing_factor_properties():
    # dephasing acts on the coherence factors only: the q = Z/2 slab is
    # untouched and slab q gains e^(-(2 ctilde - 1)(Z/2 - q) tau)
    rng = random.Random(59)
    v = random_vector(3, rng)
    q = np.array([float(qn.q) for qn in enumerate_basis(3)])
    tau = 1.3
    half = ls.evolve(v, ls.ModelParams(z=3, s=0.4), tau).coeffs
    for ct in (0.0, 0.3, 1.8):
        got = ls.evolve(v, ls.ModelParams(z=3, s=0.4, ctilde=ct), tau).coeffs
        assert np.array_equal(got[:4], half[:4])
        want = half * np.exp(-(2.0 * ct - 1.0) * (1.5 - q) * tau)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_decay_closed_form_matches_propagator():
    for z in (1, 2, 3, 4):
        p = ls.ModelParams(z=z, s=0.0)
        for qn in basis(z).states:
            v0 = SymmetricVector.from_components(z, {qn: 1.0})
            for tau in (0.0, 0.4, 2.0):
                closed = ls.propagate_decay_closed_form(qn, z, tau)
                direct = ls.propagate_bch(v0, p, tau)
                assert np.abs(closed.coeffs - direct.coeffs).max() <= 1e-12


@pytest.mark.parametrize("q3", [30, 0, -30])
def test_decay_closed_form_at_long_times(q3):
    z, tau = 60, 40.0
    qn = qnum(30, q3, 0)
    closed = ls.propagate_decay_closed_form(qn, z, tau).coeffs
    direct = ls.evolve(SymmetricVector.from_components(z, {qn: 1.0}),
                       ls.ModelParams(z=z, s=0.0), tau).coeffs
    assert np.isfinite(closed).all()
    assert np.abs(closed - direct).max() <= 1e-12 * np.abs(direct).max()


@pytest.mark.parametrize("tau", [-1.0, float("nan"), float("inf")])
def test_decay_closed_form_rejects_bad_tau(tau):
    with pytest.raises(ValueError, match="must be finite and >= 0"):
        ls.propagate_decay_closed_form(qnum(1, 1, 0), 2, tau)


def test_decay_asymptotics():
    # s=0: everything in a (q, sigma3) block slides to the bottom rung,
    # damped by the block's sigma value through the overall envelope
    z = 4
    v = SymmetricVector.from_components(z, {(2, 2, 0): 1.0})
    out = ls.propagate_bch(v, ls.ModelParams(z=z, s=0.0), 40.0)
    expect = np.zeros(basis(z).dimension)
    expect[basis(z).index[qnum(2, -2, 0)]] = 1.0
    assert np.abs(out.coeffs - expect).max() <= 1e-6


def test_balanced_pumping_asymptotics():
    z = 4
    v = SymmetricVector.from_components(z, {(2, 2, 0): 1.0})
    out = ls.evolve(v, ls.ModelParams(z=z, s=0.5), 40.0)
    b = basis(z)
    expect = np.zeros(b.dimension)
    for k in range(z + 1):
        expect[b.index[qnum(2, 2 - k, 0)]] = math.comb(z, k) / 2.0 ** z
    assert np.abs(out.coeffs - expect).max() <= 1e-6


# ------------------------------------------------------------ block spectra

def test_block_matrix_conserves_trace():
    for s in (0.0, 0.35, 1.0):
        block = ls.dicke_block_matrix(ls.ModelParams(z=5, s=s))
        assert np.abs(block.sum(axis=0)).max() <= 1e-12


def test_block_matrix_ignores_dephasing():
    a = ls.dicke_block_matrix(ls.ModelParams(z=4, s=0.3, ctilde=0.5))
    b = ls.dicke_block_matrix(ls.ModelParams(z=4, s=0.3, ctilde=2.0))
    assert np.array_equal(a, b)
    # the closed form is the leading block of the sector generator
    lv = ls.liouvillian_matrix(ls.ModelParams(z=4, s=0.3, ctilde=2.0))
    assert np.array_equal(a, lv[:5, :5].toarray())


def test_spectrum_is_integer_ladder():
    for z in (1, 3, 6, 40, 60, 100):
        for s in (0.0, 0.5, 0.9):
            vals, stat = ls.spectrum(ls.ModelParams(z=z, s=s))
            assert np.abs(vals - (-np.arange(z + 1.0))).max() <= 1e-9
            weights = stat.coeffs[: z + 1]
            expect = np.array([math.comb(z, k) * s ** (z - k) * (1 - s) ** k
                               for k in range(z + 1)])
            assert np.abs(weights - expect).max() <= 1e-10
            assert np.abs(stat.coeffs[z + 1:]).max(initial=0.0) == 0.0


@pytest.mark.parametrize("z", [1, 7, 40, 60, 200, 400])
def test_spectrum_eigenvalues_are_exact_integers_and_weights_non_negative(z):
    for s in (0.0, 0.1, 0.5, 0.9, 1.0):
        vals, stat = ls.spectrum(ls.ModelParams(z=z, s=s))
        assert np.array_equal(vals, -np.arange(z + 1)) and not np.signbit(vals[0])
        assert stat.coeffs.min() >= 0.0, (z, s)


@pytest.mark.parametrize("z", [10, 40, 100, 400])
def test_spectrum_weights_equal_the_binomial_to_relative_precision(z):
    """Each weight against C(Z, j) s^(Z-j) (1-s)^j in exact rationals,
    rounded once; a weight below the smallest float must read 0."""
    for s in (0.1, 0.3, 0.5, 0.9, 1e-3):
        stat = ls.spectrum(ls.ModelParams(z=z, s=s))[1].coeffs[:z + 1]
        exact = Fraction(s)
        want = np.array([float(math.comb(z, j) * exact ** (z - j) * (1 - exact) ** j)
                         for j in range(z + 1)])
        assert np.all(np.abs(stat - want) <= 1e-13 * want), (z, s)


def test_block_eigenmodes_normalization():
    modes = ls.block_eigenmodes(ls.ModelParams(z=3, s=0.25))
    vals = [lam for lam, _ in modes]
    assert vals == sorted(vals, reverse=True)
    stat = modes[0][1]
    assert stat.trace() == pytest.approx(1.0, abs=1e-12)
    for lam, mode in modes[1:]:
        assert abs(mode.trace()) <= 1e-10            # decaying modes are traceless
        top = np.abs(mode.coeffs).max()
        assert top == pytest.approx(1.0, abs=1e-12)
        lead = mode.coeffs[np.nonzero(np.abs(mode.coeffs) > 1e-12)[0][0]]
        assert lead > 0


@pytest.mark.parametrize("z", [3, 20, 40, 60])
def test_block_eigenmodes_have_integer_eigenvalues(z):
    modes = ls.block_eigenmodes(ls.ModelParams(z=z, s=0.3))
    assert [lam for lam, _ in modes] == [float(-k) for k in range(z + 1)]


@pytest.mark.parametrize("z", [20, 40, 60])
@pytest.mark.parametrize("s", [0.0, 0.3, 0.5, 1.0])
def test_block_eigenmodes_solve_the_block(z, s):
    p = ls.ModelParams(z=z, s=s)
    block = ls.dicke_block_matrix(p)
    norm = np.abs(block).sum(axis=1).max()
    for lam, mode in ls.block_eigenmodes(p):
        c = mode.coeffs[:z + 1]
        residual = np.abs(block @ c - lam * c).max() / (norm * np.abs(c).max())
        assert residual <= 1e-13, (lam, residual)
        assert np.abs(mode.coeffs[z + 1:]).max() == 0.0


# --------------------------------------------------------- collective model

def test_collective_ladder_weights_two_sites():
    lam_minus, lam_plus = ls.collective_ladder_weights(2)
    assert np.array_equal(lam_minus, np.array([2.0, 2.0, 0.0]))
    assert np.array_equal(lam_plus, np.array([0.0, 2.0, 2.0]))


def test_truncated_model_conserves_trace():
    rhos = ls.truncated_dicke_propagate(3, 0.4, (Fraction(3, 2), Fraction(3, 2)),
                                        np.linspace(0.0, 6.0, 7))
    traces = np.einsum("tii->t", rhos).real
    assert np.abs(traces - 1.0).max() <= 1e-12


def test_truncated_model_agrees_with_sector_for_one_site():
    # collective spin-1/2 rates equal the single-site rates, so the two
    # models coincide at z = 1 (and only there)
    z, s = 1, 0.3
    taus = np.array([0.0, 0.5, 1.5, 3.0])
    rhos = ls.truncated_dicke_propagate(z, s, (Fraction(1, 2), Fraction(1, 2)), taus)
    m_diag = np.array([0.5, -0.5])
    v0 = SymmetricVector.from_components(z, {(Fraction(1, 2), Fraction(1, 2), 0): 1.0})
    p = ls.ModelParams(z=z, s=s)
    for rho, tau in zip(rhos, taus):
        collective = float(np.real(np.diag(rho) @ m_diag))
        sector = atomic_inversion(ls.propagate_bch(v0, p, float(tau)))
        assert collective == pytest.approx(sector, abs=1e-12)


def test_truncated_model_decays_faster_than_the_sector():
    # superradiant enhancement: from the fully excited state the collective
    # inversion falls below the independent-site curve at intermediate times
    z, s = 3, 0.2
    tau = 1.0
    rho = ls.truncated_dicke_propagate(z, s, (Fraction(3, 2), Fraction(3, 2)), tau)
    m_diag = 0.5 * z - np.arange(z + 1)
    collective = float(np.real(np.diag(rho) @ m_diag))
    v0 = SymmetricVector.from_components(z, {(Fraction(3, 2), Fraction(3, 2), 0): 1.0})
    sector = atomic_inversion(ls.propagate_bch(v0, ls.ModelParams(z=z, s=s), tau))
    assert collective < sector - 0.05


def test_truncated_decay_formula_two_sites():
    # starting from M = 1 at s = 0 the collective inversion follows
    # (1 + tau) e^(-2 tau) - 1/2 per site
    taus = np.linspace(0.0, 5.0, 11)
    rhos = ls.truncated_dicke_propagate(2, 0.0, (1, 1), taus)
    m_diag = np.array([1.0, 0.0, -1.0])
    got = np.einsum("tii,i->t", rhos, m_diag).real / 2.0
    expect = (1.0 + taus) * np.exp(-2.0 * taus) - 0.5
    assert np.abs(got - expect).max() <= 1e-12


def test_truncated_model_scalar_tau_and_matrix_initial():
    rho0 = np.zeros((3, 3), dtype=complex)
    rho0[1, 1] = 1.0
    out = ls.truncated_dicke_propagate(2, 0.0, rho0, 1.0)
    assert out.shape == (3, 3)
    same = ls.truncated_dicke_propagate(2, 0.0, (0, 0), 1.0)
    assert np.abs(out - same).max() <= 1e-12


def test_truncated_model_rejects_bad_input():
    with pytest.raises(ValueError):
        ls.truncated_dicke_propagate(2, 0.0, (2, 0), 1.0)       # M outside spin 1
    with pytest.raises(ValueError):
        ls.truncated_dicke_propagate(2, 0.0, (Fraction(1, 2), 0), 1.0)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ls.truncated_dicke_propagate(2, 0.0, (1, 1), [1.0, bad])
    with pytest.raises(ValueError):
        ls.truncated_dicke_propagate(2, 0.0, np.eye(4), 1.0)
    for bad in (1.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match="pumping weight"):
            ls.truncated_dicke_propagate(2, bad, (1, 1), [1.0])


def collective_generator(z, s):
    """Sparse generator of the collective model on row-major vec(P), built
    from the S+- matrices: L P L^T = kron(L, L) vec(P) for real L."""
    m = 0.5 * z - np.arange(1, z + 1)          # M of the states S+ raises
    s_plus = sparse.diags(np.sqrt((0.5 * z - m) * (0.5 * z + m + 1.0)), 1)
    eye = sparse.identity(z + 1)

    def dissipator(jump, rate):
        jj = (jump.T @ jump).tocsr()
        return rate * (sparse.kron(jump, jump) - 0.5 * sparse.kron(jj, eye)
                       - 0.5 * sparse.kron(eye, jj.T))

    return (dissipator(s_plus.T, 1.0 - s) + dissipator(s_plus, s)).tocsr()


def random_density(z, rng):
    a = rng.normal(size=(z + 1, z + 1)) + 1j * rng.normal(size=(z + 1, z + 1))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


@pytest.mark.parametrize("z", range(1, 9))
@pytest.mark.parametrize("s", [0.0, 0.3, 1.0])
def test_truncated_model_equals_full_generator_exponential(z, s):
    rng = np.random.default_rng(10 * z + int(10 * s))
    rho0 = random_density(z, rng)
    taus = np.array([2.0, 0.5, 0.5, 0.0, 3.7, 1.1, 2.0])     # unsorted, repeated
    gen = collective_generator(z, s).toarray()
    got = ls.truncated_dicke_propagate(z, s, rho0, taus)
    for tau, rho in zip(taus, got):
        want = (expm(tau * gen) @ rho0.reshape(-1)).reshape(z + 1, z + 1)
        assert np.abs(rho - want).max() <= 1e-12, tau


@pytest.mark.parametrize("z", [20, 60])
def test_truncated_model_equals_per_tau_band_exponential(z):
    # the 200-point grid of `dicke4 propagate`; four occupied bands, each
    # propagated at every tau by the exponential of its block of the full
    # generator
    taus = np.linspace(0.0, 10.0, 200)
    rho0 = np.zeros((z + 1, z + 1), dtype=complex)
    full = random_density(z, np.random.default_rng(z))
    for d in (-1, 0, 1):
        rho0 += np.diag(np.diagonal(full, d), d)
    rho0[0, z] = rho0[z, 0] = 0.01
    got = ls.truncated_dicke_propagate(z, 0.3, rho0, taus)
    gen = collective_generator(z, 0.3)
    for d in (-z, -1, 0, 1):
        rows, cols = np.nonzero(np.eye(z + 1, k=d))
        idx = rows * (z + 1) + cols
        block = gen[idx][:, idx].toarray()
        for tau, rho in zip(taus, got):
            want = expm(tau * block) @ rho0[rows, cols]
            assert np.abs(rho[rows, cols] - want).max() <= 1e-12, (d, tau)
    assert np.abs(np.einsum("tii->t", got) - 1.0).max() <= 1e-12


def _run_fresh(code: str) -> str:
    """stdout of `code` run in a new interpreter that imports this checkout."""
    src = str(Path(ls.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, check=True).stdout


def test_package_import_loads_no_ode_solver():
    # The product path needs numpy only: importing the package and the CLI
    # and running symmetric propagations (with dense read-outs) load no scipy.
    out = _run_fresh("""if True:
        import contextlib, io, sys
        import dicke4, dicke4.cli
        from dicke4 import cli
        loaded = lambda: sorted(m for m in sys.modules if m.startswith("scipy"))
        print(loaded())
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(["propagate", "--initial", "dicke:0", "--z", "20",
                               "--model", "symmetric", "--format", "json"]),
                     cli.main(["propagate", "--initial", "bell", "--steps", "5",
                               "--observables", "trace,inversion,entropy"])]
        v = dicke4.extract_coefficients(6, dicke4.SymmetricVector.from_components(
            6, {(3, 0, 0): 1.0}).to_dense())
        dicke4.von_neumann_entropy(dicke4.evolve(v, dicke4.ModelParams(z=6, s=0.3), 0.5))
        print(codes, loaded())
    """)
    assert out == "[]\n[0, 0] []\n"


def test_functions_that_import_scipy_run_in_a_fresh_interpreter():
    # Each of these imports scipy itself, and some are cached; a fresh
    # interpreter makes a leftover module-level scipy name fail here.
    out = _run_fresh("""if True:
        import numpy as np
        from dicke4 import dense_oracle as do, lindblad_solver as ls
        p = ls.ModelParams(z=2, s=0.3, ctilde=0.8)
        rho = np.eye(4, dtype=complex) / 4
        ls.ladder_matrices(2)
        ls.liouvillian_matrix(p)
        print(np.rint(ls.spectrum(p)[0]).astype(int))
        ls.truncated_dicke_propagate(2, 0.3, (1, 1), [0.0, 0.5])
        do.superoperator_dense("Q3", 2, rho)
        do.superoperator_dense("Q+", 2, rho)
        do.lindblad_apply(2, 0.3, rho, ctilde=0.8)
        do.liouvillian_sparse(2, 0.3, 0.8)
        print(np.trace(do.dense_propagate(2, 0.3, rho, 0.5, ctilde=0.8)).real.round(12))
    """)
    assert out == "[ 0 -1 -2]\n1.0\n"
