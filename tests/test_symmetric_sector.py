"""Sector basis: labels, multiplicities, ladders, embeddings, biorthogonality."""

import gc
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicke4 import su4_algebra as su4
from dicke4 import symmetric_sector as sec

counts4 = st.tuples(*(st.integers(min_value=0, max_value=4),) * 4).filter(
    lambda t: 1 <= sum(t) <= 8)


def tr_prod(t1, t2):
    entries = {}
    for w, cf in t2.items():
        r, c = su4.word_entry(w)
        entries[(r, c)] = entries.get((r, c), 0) + cf
    total = Fraction(0)
    for w, cf in t1.items():
        r, c = su4.word_entry(w)
        total += cf * entries.get((c, r), 0)
    return total


# ------------------------------------------------------------------- labels

def test_sector_dimension_closed_form():
    for z in range(1, 21):
        assert sec.sector_dimension(z) == (z + 1) * (z + 2) * (z + 3) // 6
        assert len(sec.enumerate_basis(z)) == sec.sector_dimension(z)
    with pytest.raises(ValueError):
        sec.sector_dimension(0)


@given(counts4)
def test_config_label_round_trip(counts):
    cfg = sec.Config(*counts)
    qn = sec.qn_from_config(cfg)
    assert sec.config_from_qn(cfg.z, qn) == cfg
    assert qn.q + (Fraction(cfg.gamma + cfg.delta, 2)) == Fraction(cfg.z, 2)


def test_config_from_qn_rejects_foreign_labels():
    with pytest.raises(ValueError):
        sec.config_from_qn(2, sec.qnum(Fraction(3, 2), Fraction(1, 2), 0))
    with pytest.raises(ValueError):
        sec.config_from_qn(2, sec.qnum(1, 2, 0))     # q3 > q
    with pytest.raises(ValueError):
        sec.config_from_qn(3, sec.qnum(1, 0, 0))     # sigma3 not half-integral


def test_multiplicities_tile_the_full_operator_space():
    # the 4^Z word space is exactly partitioned by the configurations
    for z in range(1, 7):
        total = sum(sec.multiplicity(sec.config_from_qn(z, qn))
                    for qn in sec.enumerate_basis(z))
        assert total == 4 ** z


def test_basis_order_puts_the_dicke_block_first():
    for z in (1, 2, 3, 5):
        states = sec.enumerate_basis(z)
        half_z = Fraction(z, 2)
        lead = states[: z + 1]
        assert all(qn.q == half_z for qn in lead)
        assert [qn.q3 for qn in lead] == sorted(
            (qn.q3 for qn in lead), reverse=True)
        assert all(qn.q < half_z for qn in states[z + 1:])


def test_basis_slot_is_the_enumeration_index():
    for z in range(1, 9):
        labels = sec.enumerate_basis(z)
        assert list(labels) == sorted(labels, key=lambda qn: (-qn.q, -qn.q3, -qn.sigma3))
        for i, qn in enumerate(labels):
            assert sec.basis_slot(z, qn) == i, (z, qn)
    with pytest.raises(ValueError):
        sec.basis_slot(2, (2, 0, 0))


def test_dual_label_flips_sigma3_only():
    qn = sec.qnum(Fraction(1, 2), Fraction(-1, 2), 1)
    assert sec.dual_qn(qn) == sec.qnum(Fraction(1, 2), Fraction(-1, 2), -1)
    assert sec.dual_qn(sec.dual_qn(qn)) == qn


@pytest.mark.parametrize("z", range(1, 13))
def test_basis_view_reads_the_enumeration(z):
    """basis(z) computes labels and slots on demand, in the order of
    enumerate_basis: every slot, negative indices, slices and `in`."""
    labels = sec.enumerate_basis(z)
    b = sec.basis(z)
    dim = sec.sector_dimension(z)
    assert b.z == z and b.dimension == len(b.states) == len(b.index) == dim
    assert tuple(b.states) == labels and tuple(b.index) == labels
    for i, qn in enumerate(labels):
        assert b.states[i] == qn and b.states[i - dim] == qn
        assert b.index[b.states[i]] == i
        assert qn in b.index
    for sl in (slice(None), slice(z + 1), slice(z + 1, None), slice(-3, None),
               slice(None, None, -1), slice(1, -1, 3), slice(dim, dim + 5)):
        assert b.states[sl] == labels[sl], sl
    for i in (dim, -dim - 1):
        with pytest.raises(IndexError):
            b.states[i]
    # plain tuples and floats hash and compare like the Fraction labels
    assert b.index[(Fraction(z, 2), Fraction(z, 2), 0)] == 0
    assert b.index[(z / 2, -z / 2, 0.0)] == z


# (label triple, z): not half-integers, wrong parity, negative counts
UNREALIZABLE = [
    ((Fraction(1, 3), 0, 0), 2), ((1, Fraction(1, 4), 0), 2), ((1, 0, Fraction(2, 3)), 2),
    ((1, 0, 0), 3), ((Fraction(1, 2), 0, Fraction(1, 2)), 2), ((1, Fraction(1, 2), 0), 2),
    ((Fraction(3, 2), Fraction(1, 2), 0), 2), ((1, 2, 0), 2), ((-1, 0, 0), 2),
    ((0, 0, Fraction(3, 2)), 2), ((Fraction(1, 2), Fraction(-3, 2), 0), 3),
]


@pytest.mark.parametrize("label, z", UNREALIZABLE)
def test_unrealizable_labels_are_refused(label, z):
    b = sec.basis(z)
    assert label not in b.index
    with pytest.raises(KeyError):
        b.index[label]
    for call in (sec.config_from_qn, sec.basis_slot):
        with pytest.raises(ValueError, match="not realizable"):
            call(z, label)


def test_basis_index_refuses_what_is_not_a_label():
    b = sec.basis(2)
    for key in ((1, 1), (1, "x", 0), "abc", None):
        assert key not in b.index
        with pytest.raises(KeyError):
            b.index[key]


def fraction_config_from_qn(z, qn):
    """The label inverse in Fraction arithmetic, as the sector code had it
    before it moved onto doubled integer labels."""
    q, q3, sigma3 = Fraction(qn[0]), Fraction(qn[1]), Fraction(qn[2])
    sigma = Fraction(z, 2) - q
    counts = (q + q3, q - q3, sigma + sigma3, sigma - sigma3)
    if any(x.denominator != 1 or x < 0 for x in counts):
        raise ValueError(f"labels {tuple(qn)} are not realizable at z={z}")
    return sec.Config(*(int(x) for x in counts))


rationals = st.one_of(st.integers(-8, 8),
                      st.fractions(min_value=-8, max_value=8, max_denominator=6))


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 12), st.tuples(rationals, rationals, rationals))
def test_config_from_qn_matches_the_fraction_formula(z, triple):
    try:
        want = fraction_config_from_qn(z, triple)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            sec.config_from_qn(z, triple)
        assert str(got.value) == str(exc)
        return
    got = sec.config_from_qn(z, triple)
    assert got == want and all(type(x) is int for x in got)


@settings(max_examples=200, deadline=None)
@given(counts4)
def test_config_from_qn_matches_the_fraction_formula_on_the_sector(counts):
    cfg = sec.Config(*counts)
    qn = sec.qn_from_config(cfg)
    assert sec.config_from_qn(cfg.z, qn) == fraction_config_from_qn(cfg.z, qn) == cfg


def test_basis_builds_no_label_table():
    """basis(z) at the sizes a large-Z run uses leaves next to nothing on the
    heap: under 1,000 gc-tracked objects and 1 MB for Z = 20, 40 and 60."""
    sec.basis.cache_clear()
    gc.collect()
    objects = len(gc.get_objects())
    tracemalloc.start()
    try:
        held = [sec.basis(z) for z in (20, 40, 60)]
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    gc.collect()
    added = len(gc.get_objects()) - objects
    assert [b.dimension for b in held] == [1771, 12341, 39711]
    assert added < 1000 and size < 1_000_000, (added, size)


# ------------------------------------------------------------------ ladders

def test_worked_ladder_example_three_sites():
    # coefficient = count of the replaced factor: Q- on u^3 replaces one of
    # the three u factors
    coeff, target = sec.apply_ladder(
        "Q-", sec.qnum(Fraction(3, 2), Fraction(3, 2), 0), 3)
    assert coeff == Fraction(3)
    assert target == sec.qnum(Fraction(3, 2), Fraction(1, 2), 0)


def test_ladder_annihilation_at_block_edges():
    top = sec.qnum(1, 1, 0)
    coeff, target = sec.apply_ladder("Q+", top, 2)
    assert coeff == 0 and target is None
    coeff, target = sec.apply_ladder("Sigma-", top, 2)   # no s factor present
    assert coeff == 0 and target is None


@pytest.mark.parametrize("z", [1, 2, 3])
def test_ladder_action_matches_word_expansion(z):
    """Label arithmetic against the literal symmetrized word route, exactly."""
    for qn in sec.enumerate_basis(z):
        spread = sec.state_operator_sum(z, qn)
        for op in su4.SUPEROPERATORS:
            coeff, target = sec.apply_ladder(op, qn, z)
            via_words = su4.apply_superoperator(op, spread)
            expected = {}
            if target is not None and coeff:
                expected = su4.clean(su4.scale(
                    sec.state_operator_sum(z, target), coeff))
            assert via_words == expected, (z, qn, op)


def test_diagonal_ladder_eigenvalues():
    qn = sec.qnum(1, 0, 1)          # z=4 config (1,1,2,0)
    coeff, target = sec.apply_ladder("Q3", qn, 4)
    assert (coeff, target) == (Fraction(0), qn)
    coeff, _ = sec.apply_ladder("Sigma3", qn, 4)
    assert coeff == Fraction(1)
    coeff, _ = sec.apply_ladder("M3", qn, 4)
    assert coeff == Fraction(1, 2)   # (alpha - delta)/2


def test_qtilde_eigenvalue_is_q():
    for z in (2, 3):
        for qn in sec.enumerate_basis(z):
            spread = sec.state_operator_sum(z, qn)
            out = su4.qtilde_apply(spread)
            expect = su4.clean(su4.scale(spread, qn.q))
            assert out == expect


# ------------------------------------------------- embeddings and pairings

def test_embedded_states_have_unit_or_zero_trace():
    for z in (1, 2, 3):
        for qn in sec.enumerate_basis(z):
            cfg = sec.config_from_qn(z, qn)
            tr = np.trace(sec.embed_dense(z, qn))
            want = 1.0 if cfg.gamma == 0 and cfg.delta == 0 else 0.0
            assert abs(tr - want) <= 1e-14


def test_embedded_adjoint_flips_sigma3():
    z = 3
    qn = sec.qnum(Fraction(1, 2), Fraction(1, 2), 1)
    lhs = sec.embed_dense(z, qn).conj().T
    rhs = sec.embed_dense(z, sec.dual_qn(qn))
    assert np.abs(lhs - rhs).max() <= 1e-15


def test_biorthogonality_pairing():
    # M(cfg) * Tr{P_dual P'} = delta on labels, exact
    for z in (1, 2, 3):
        b = sec.basis(z)
        for i, qn_i in enumerate(b.states):
            left = sec.state_operator_sum(z, sec.dual_qn(qn_i))
            mult = sec.multiplicity(sec.config_from_qn(z, qn_i))
            for j, qn_j in enumerate(b.states):
                right = sec.state_operator_sum(z, qn_j)
                val = mult * tr_prod(left, right)
                assert val == (1 if i == j else 0), (qn_i, qn_j)


@pytest.mark.parametrize("z", range(1, 7))
def test_dense_boundary_equals_word_route(z):
    """Slot-map gather against the literal word expansion, bit for bit."""
    dim = sec.sector_dimension(z)
    for i, qn in enumerate(sec.enumerate_basis(z)):
        words = su4.to_dense(sec.state_operator_sum(z, qn), z)
        assert np.array_equal(sec.embed_dense(z, qn), words), qn
        unit = np.zeros(dim)
        unit[i] = 1.0
        assert np.array_equal(sec.SymmetricVector(z, unit).to_dense(), words), qn


@pytest.mark.parametrize("z", range(1, 7))
def test_extract_equals_dual_arrangement_sum(z):
    """Bincount over the slot map against the per-arrangement dual sum."""
    rng = np.random.default_rng(z)
    dim = sec.sector_dimension(z)
    v = sec.SymmetricVector(z, rng.normal(size=dim) + 1j * rng.normal(size=dim))
    rho = v.to_dense()
    expect = np.zeros(dim, dtype=complex)
    for i, qn in enumerate(sec.enumerate_basis(z)):
        for wrd in sec._arrangements(sec.config_from_qn(z, sec.dual_qn(qn))):
            r, c = su4.word_entry(wrd)
            expect[i] += rho[c, r]
    got = sec.extract_coefficients(z, rho).coeffs
    assert np.abs(got - expect).max() <= 1e-13
    assert np.abs(got - v.coeffs).max() <= 1e-13


def test_dense_round_trip_at_ten_sites_is_fast():
    z = 10
    rng = np.random.default_rng(10)
    v = sec.SymmetricVector(z, rng.normal(size=sec.sector_dimension(z)))
    t0 = time.perf_counter()
    rho = v.to_dense()
    t1 = time.perf_counter()
    back = sec.extract_coefficients(z, rho)
    t2 = time.perf_counter()
    assert np.abs(back.coeffs - v.coeffs).max() <= 1e-12
    assert t1 - t0 < 1.0 and t2 - t1 < 1.0, (t1 - t0, t2 - t1)


def test_extract_inverts_embed():
    rng = random.Random(5)
    for z in (1, 2, 3):
        b = sec.basis(z)
        for _ in range(6):
            i = rng.randrange(b.dimension)
            v = sec.extract_coefficients(z, sec.embed_dense(z, b.states[i]))
            expect = np.zeros(b.dimension)
            expect[i] = 1.0
            assert np.abs(v.coeffs - expect).max() <= 1e-12


def test_extract_returns_float_coefficients_for_a_real_valued_matrix():
    z = 4
    rng = np.random.default_rng(11)
    dim = sec.sector_dimension(z)
    real = sec.SymmetricVector(z, rng.normal(size=dim))
    cplx = sec.SymmetricVector(z, rng.normal(size=dim) + 1j * rng.normal(size=dim))
    for v, dtype in ((real, np.float64), (cplx, np.complex128)):
        rho = v.to_dense()
        assert rho.dtype == np.complex128
        back = sec.extract_coefficients(z, rho)
        assert back.coeffs.dtype == dtype
        assert np.abs(back.coeffs - v.coeffs).max() <= 1e-13
        assert np.abs(back.to_dense() - rho).max() <= 1e-13
    # a float matrix takes the same path
    assert sec.extract_coefficients(z, real.to_dense().real).coeffs.dtype == np.float64


def test_dense_reconstructions_stay_complex():
    z = 3
    dim = sec.sector_dimension(z)
    for coeffs in (np.ones(dim), np.ones(dim, dtype=complex), np.arange(dim)):
        assert sec.SymmetricVector(z, coeffs).to_dense().dtype == np.complex128
    assert sec.embed_dense(z, sec.qnum(Fraction(3, 2), Fraction(1, 2), 0)).dtype == np.complex128


@pytest.mark.parametrize("z", range(1, 7))
def test_hermiticity_defect_equals_the_dense_defect(z):
    rng = np.random.default_rng(30 + z)
    dim = sec.sector_dimension(z)
    hermitian = sec.extract_coefficients(
        z, sec.SymmetricVector(z, rng.normal(size=dim)).to_dense()
        + sec.SymmetricVector(z, rng.normal(size=dim)).to_dense().conj().T)
    for coeffs in (rng.normal(size=dim) + 1j * rng.normal(size=dim),
                   rng.normal(size=dim), hermitian.coeffs):
        v = sec.SymmetricVector(z, coeffs)
        rho = v.to_dense()
        assert sec.hermiticity_defect(v) == np.abs(rho - rho.conj().T).max()


@pytest.mark.parametrize("z", [1, 2, 5, 8])
def test_slot_pairing_matches_the_dense_layout(z):
    """Closed-form multiplicities against a count of each slot's dense
    entries; the dual slot is the slot of the transposed entries."""
    slots = sec._dense_layout(z)[0]
    mult, dual = sec._slot_pairing(z)
    assert np.array_equal(mult, np.bincount(slots.ravel()).astype(float))
    assert np.array_equal(dual[slots], slots.T)
    assert np.array_equal(dual[dual], np.arange(len(dual)))


def test_extract_rejects_asymmetric_matrices():
    rho = np.zeros((4, 4))
    rho[0, 1] = 1.0           # |11><10|, not swap invariant
    with pytest.raises(ValueError):
        sec.extract_coefficients(2, rho)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.inf),
                                 complex(0, math.nan)])
def test_extract_rejects_non_finite_entries(bad):
    rho = sec.embed_dense(2, sec.qnum(1, 1, 0))
    rho[0, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        sec.extract_coefficients(2, rho)


def test_permutation_defect_detects_broken_symmetry():
    z = 3
    sym = sec.embed_dense(z, sec.qnum(Fraction(3, 2), Fraction(1, 2), 0))
    assert sec.permutation_defect(z, sym) <= 1e-15
    broken = sym.copy()
    broken[1, 1] += 0.2
    assert sec.permutation_defect(z, broken) > 0.1
    with pytest.raises(ValueError):
        sec.permutation_defect(2, sym)


@pytest.mark.parametrize("r, c", [(1, 1), (1, 2), (3, 5), (0, 6)])
def test_permutation_defect_of_one_perturbed_entry(r, c):
    # the orbit of (r, c) has M entries; moving one by eps moves their average
    # by eps/M, so the perturbed entry sits eps (1 - 1/M) away from it
    z, eps = 3, 1e-3
    rho = sec.SymmetricVector(z, np.random.default_rng(4).standard_normal(
        sec.sector_dimension(z))).to_dense()
    slots, mult = sec._dense_layout(z)
    m = mult[slots[r, c]]
    assert m >= 2
    rho[r, c] += eps
    assert sec.permutation_defect(z, rho) == pytest.approx(eps * (1.0 - 1.0 / m), rel=1e-9)


def test_extract_bell_triplet_components():
    psi = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)   # (|10> + |01>)/sqrt2
    v = sec.extract_coefficients(2, np.outer(psi, psi))
    comps = {qn: c for qn, c in zip(sec.basis(2).states, v.coeffs) if abs(c) > 1e-12}
    assert set(comps) == {sec.qnum(1, 0, 0), sec.qnum(0, 0, 0)}
    assert comps[sec.qnum(1, 0, 0)] == pytest.approx(1.0, abs=1e-12)
    assert comps[sec.qnum(0, 0, 0)] == pytest.approx(1.0, abs=1e-12)


def test_extract_ghz_components():
    psi = np.zeros(8)
    psi[0] = 1.0 / math.sqrt(2.0)    # |111>
    psi[7] = -1.0 / math.sqrt(2.0)   # |000>
    v = sec.extract_coefficients(3, np.outer(psi, psi))
    h = Fraction(3, 2)
    comps = {qn: c for qn, c in zip(sec.basis(3).states, v.coeffs) if abs(c) > 1e-12}
    assert set(comps) == {sec.qnum(h, h, 0), sec.qnum(h, -h, 0),
                          sec.qnum(0, 0, h), sec.qnum(0, 0, -h)}
    assert comps[sec.qnum(h, h, 0)] == pytest.approx(0.5, abs=1e-12)
    assert comps[sec.qnum(h, -h, 0)] == pytest.approx(0.5, abs=1e-12)
    assert comps[sec.qnum(0, 0, h)] == pytest.approx(-0.5, abs=1e-12)
    assert comps[sec.qnum(0, 0, -h)] == pytest.approx(-0.5, abs=1e-12)


# ------------------------------------------------------------------ vectors

def test_vector_round_trip_through_dense():
    v = sec.SymmetricVector.from_components(
        2, {(1, 1, 0): 0.25, (1, 0, 0): 0.5, (0, 0, 0): -0.125})
    back = sec.extract_coefficients(2, v.to_dense())
    assert np.abs(back.coeffs - v.coeffs).max() <= 1e-12


def test_vector_trace_counts_only_dicke_states():
    v = sec.SymmetricVector.from_components(
        2, {(1, 1, 0): 0.3, (0, 0, 0): 9.0, (0, 0, 1): 4.0})
    assert v.trace() == pytest.approx(0.3, abs=1e-15)


def test_from_components_rejects_foreign_label():
    with pytest.raises(ValueError):
        sec.SymmetricVector.from_components(2, {(2, 0, 0): 1.0})
    with pytest.raises(ValueError):
        sec.SymmetricVector(2, np.zeros(10)).coeff((1, 2, 0))


def test_vector_shape_validation():
    with pytest.raises(ValueError):
        sec.SymmetricVector(2, np.zeros(9))   # dimension is 10


def test_coeff_lookup_accepts_plain_tuples():
    v = sec.SymmetricVector.from_components(3, {(Fraction(3, 2), Fraction(1, 2), 0): 2.0})
    assert v.coeff(("3/2", "1/2", 0)) == 2.0
