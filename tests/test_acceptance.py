"""Release gate.

Twelve end-to-end checks, one test each, covering the algebra tables, the
sector combinatorics, the factorized propagator against the brute-force
oracle, the closed-form weight and spectrum formulas, physicality along
trajectories, and the large-Z performance headroom.  Tolerances and time
budgets are stated inline; every check is deterministic.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from dicke4 import dense_oracle as do
from dicke4 import su4_algebra as su4
from dicke4 import symmetric_sector as sec
from dicke4.lindblad_solver import ModelParams, evolve, propagate_bch, spectrum, \
    truncated_dicke_propagate
from dicke4.observables import atomic_inversion, bell_initial, \
    bell_weights_reference, ghz_initial, ghz_weights_reference, von_neumann_entropy
from dicke4.symmetric_sector import SymmetricVector, basis, qnum

TAU_GRID = tuple(0.25 * k for k in range(41))     # 0, 0.25, ..., 10


def random_word(rng, z):
    return "".join(rng.choice("udsc") for _ in range(z))


def test_criterion_01_commutator_table_exact_on_random_words():
    """All 18x18 commutators match the direct double application on 100
    random words per size, Z = 1..4, in exact rational arithmetic, < 30 s."""
    ops = su4.SUPEROPERATORS
    rng = random.Random(2024)
    start = time.perf_counter()
    checked = 0
    for z in (1, 2, 3, 4):
        for _ in range(100):
            w = random_word(rng, z)
            images = {y: su4.apply_superoperator(y, w) for y in ops}
            for x in ops:
                for y in ops:
                    direct = {}
                    su4.add_into(direct, su4.apply_superoperator(x, images[y]))
                    su4.add_into(direct, su4.apply_superoperator(y, images[x]), -1)
                    assert su4.clean(direct) == su4.table_commutator(x, y, w), \
                        (z, w, x, y)
                    checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 4 * 100 * 18 * 18
    assert elapsed < 30.0, f"commutator sweep took {elapsed:.1f} s"


def test_criterion_02_sector_dimension_formula():
    for z in range(1, 21):
        assert len(sec.enumerate_basis(z)) == (z + 1) * (z + 2) * (z + 3) // 6
    assert sec.sector_dimension(5) == 56
    assert sec.sector_dimension(10) == 286
    assert sec.sector_dimension(20) == 1771


def test_criterion_03_ladder_action_matches_dense_embedding():
    """All 18 superoperators on every basis state, Z <= 4, against the
    brute-force matrix action, entrywise to 1e-12."""
    for z in (1, 2, 3, 4):
        b = basis(z)
        embeds = {qn: sec.embed_dense(z, qn) for qn in b.states}
        for qn in b.states:
            rho = embeds[qn]
            for op in su4.SUPEROPERATORS:
                coeff, target = sec.apply_ladder(op, qn, z)
                if target is None or coeff == 0:
                    via_labels = np.zeros_like(rho)
                else:
                    via_labels = float(coeff) * embeds[target]
                direct = do.superoperator_dense(op, z, rho)
                assert np.abs(via_labels - direct).max() <= 1e-12, (z, qn, op)


def test_criterion_04_worked_lowering_example():
    # lowering the fully excited three-site state: coefficient 3, exactly
    top = qnum(Fraction(3, 2), Fraction(3, 2), 0)
    coeff, target = sec.apply_ladder("Q-", top, 3)
    assert coeff == Fraction(3)
    assert target == qnum(Fraction(3, 2), Fraction(1, 2), 0)
    # same statement through the literal word expansion
    spread = sec.state_operator_sum(3, top)
    lowered = su4.apply_superoperator("Q-", spread)
    assert lowered == su4.clean(
        su4.scale(sec.state_operator_sum(3, target), Fraction(3)))


def test_criterion_05_factorized_propagator_matches_dense_oracle():
    """Sector propagation vs the 2^Z brute force: Z in {2,3},
    s in {0, 0.3, 0.5, 0.9}, tau in {0.1, 0.5, 1, 2, 5}, entrywise 1e-8,
    < 60 s."""
    rng = random.Random(99)
    start = time.perf_counter()
    for z in (2, 3):
        b = basis(z)
        starts = [
            SymmetricVector.from_components(z, {(Fraction(z, 2), Fraction(z, 2), 0): 1.0}),
            SymmetricVector(z, np.array([rng.gauss(0, 1) for _ in range(b.dimension)])),
        ]
        for v0 in starts:
            rho0 = v0.to_dense()
            for s in (0.0, 0.3, 0.5, 0.9):
                p = ModelParams(z=z, s=s)
                for tau in (0.1, 0.5, 1.0, 2.0, 5.0):
                    via_sector = evolve(v0, p, tau).to_dense()
                    via_dense = do.dense_propagate(z, s, rho0, tau)
                    gap = np.abs(via_sector - via_dense).max()
                    assert gap <= 1e-8, (z, s, tau, gap)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"oracle comparison took {elapsed:.1f} s"


def test_criterion_06_bell_scenario_weights():
    """Solver matches the four-component closed form to 1e-12 across the
    (s, tau) grid, the balanced closed form, and the tau -> inf weights."""
    v0 = bell_initial()
    b = basis(2)
    support = [b.index[qnum(1, 1, 0)], b.index[qnum(1, 0, 0)],
               b.index[qnum(1, -1, 0)], b.index[qnum(0, 0, 0)]]
    off_support = [i for i in range(b.dimension) if i not in support]
    for s in (0.0, 0.1, 0.5, 0.9, 1.0):
        p = ModelParams(z=2, s=s)
        for tau in TAU_GRID:
            got = evolve(v0, p, tau)
            expect = bell_weights_reference(s, tau)
            for idx, want in zip(support, expect):
                assert abs(got.coeffs[idx] - want) <= 1e-12, (s, tau)
            assert np.abs(got.coeffs[off_support]).max() <= 1e-15

    # balanced pumping collapses the weights to polynomials in f
    for tau in (0.0, 0.7, 2.5, 8.0):
        f = -math.expm1(-tau)
        b1, b2, b3, _ = bell_weights_reference(0.5, tau)
        assert abs(b1 - (0.5 * f - 0.25 * f * f)) <= 1e-12
        assert abs(b3 - b1) <= 1e-12
        assert abs(b2 - (1.0 - f + 0.5 * f * f)) <= 1e-12

    # late-time weights: s^2, 2s(1-s), (1-s)^2, 0
    for s in (0.0, 0.1, 0.5, 0.9, 1.0):
        got = evolve(v0, ModelParams(z=2, s=s), 40.0)
        limits = (s * s, 2.0 * s * (1.0 - s), (1.0 - s) ** 2, 0.0)
        for idx, want in zip(support, limits):
            assert abs(got.coeffs[idx] - want) <= 1e-12, (s, want)


def test_criterion_07_ghz_scenario_weights():
    """Five-component decay closed form to 1e-12, including the coherence
    weight -c5 on both sigma3 = +-3/2 components."""
    v0 = ghz_initial()
    p = ModelParams(z=3, s=0.0)
    b = basis(3)
    h = Fraction(3, 2)
    ladder = [b.index[qnum(h, h - k, 0)] for k in range(4)]
    coh = [b.index[qnum(0, 0, h)], b.index[qnum(0, 0, -h)]]
    touched = set(ladder) | set(coh)
    for tau in TAU_GRID:
        got = evolve(v0, p, tau)
        c1, c2, c3, c4, c5 = ghz_weights_reference(tau)
        for idx, want in zip(ladder, (c1, c2, c3, c4)):
            assert abs(got.coeffs[idx] - want) <= 1e-12, tau
        for idx in coh:
            assert abs(got.coeffs[idx] - (-c5)) <= 1e-12, tau
        rest = [i for i in range(b.dimension) if i not in touched]
        assert np.abs(got.coeffs[rest]).max() <= 1e-15


def test_criterion_08_leading_block_spectrum():
    """Eigenvalues {0, -1, ..., -Z} to 1e-8 and binomial stationary weights
    to 1e-10, for Z <= 10 and five pumping strengths."""
    for z in range(1, 11):
        for s in (0.0, 0.25, 0.5, 0.75, 1.0):
            vals, stat = spectrum(ModelParams(z=z, s=s))
            assert np.abs(vals - (-np.arange(z + 1.0))).max() <= 1e-8, (z, s)
            expect = np.array([math.comb(z, k) * s ** (z - k) * (1.0 - s) ** k
                               for k in range(z + 1)])
            assert np.abs(stat.coeffs[: z + 1] - expect).max() <= 1e-10, (z, s)


def test_criterion_09_inversion_decay_formulas():
    """Per-site inversion closed forms at s = 0 to 1e-10; the spin-Z/2
    truncated model follows its own, visibly faster, Z = 2 decay law to
    1e-12."""
    taus = [0.25 * k for k in range(25)]

    z = 4
    p = ModelParams(z=z, s=0.0)
    all_up = SymmetricVector.from_components(z, {(2, 2, 0): 1.0})
    centred = SymmetricVector.from_components(z, {(2, 0, 0): 1.0})
    for tau in taus:
        got = atomic_inversion(evolve(all_up, p, tau)) / z
        assert abs(got - (math.exp(-tau) - 0.5)) <= 1e-10, tau
        got = atomic_inversion(evolve(centred, p, tau)) / z
        assert abs(got - 0.5 * (math.exp(-tau) - 1.0)) <= 1e-10, tau

    rhos = truncated_dicke_propagate(2, 0.0, (1, 1), np.array(taus))
    m_diag = np.array([1.0, 0.0, -1.0])
    collective = np.einsum("tii,i->t", rhos, m_diag).real / 2.0
    expect = (1.0 + np.array(taus)) * np.exp(-2.0 * np.array(taus)) - 0.5
    assert np.abs(collective - expect).max() <= 1e-12

    # the collective decay undershoots the independent-site law well before
    # both settle to -1/2
    site_law = math.exp(-2.0) - 0.5
    truncated_law = 3.0 * math.exp(-4.0) - 0.5
    assert truncated_law < site_law - 0.05
    idx = taus.index(2.0)
    assert collective[idx] < site_law - 0.05


def test_criterion_10_entropy_endpoints():
    """Pure starts, the 2-bit balanced plateau, and the GHZ rise-and-return."""
    bell = bell_initial()
    assert von_neumann_entropy(bell) <= 1e-9
    plateau = von_neumann_entropy(evolve(bell, ModelParams(z=2, s=0.5), 40.0))
    assert abs(plateau - 2.0) <= 1e-6

    ghz = ghz_initial()
    p = ModelParams(z=3, s=0.0)
    assert von_neumann_entropy(ghz) <= 1e-9
    curve = [von_neumann_entropy(evolve(ghz, p, tau)) for tau in TAU_GRID[1:]]
    assert max(curve) > 0.1
    assert von_neumann_entropy(evolve(ghz, p, 40.0)) <= 1e-6


def test_criterion_11_physicality_along_trajectories():
    """Trace drift, Hermiticity defect and negativity all within 1e-10."""
    plus_ket = np.full(8, 1.0 / math.sqrt(8.0))      # |+>^3, coherences at every q
    plus_product = sec.extract_coefficients(3, np.outer(plus_ket, plus_ket))
    cases = [
        (bell_initial(), ModelParams(z=2, s=0.0)),
        (bell_initial(), ModelParams(z=2, s=0.5)),
        (bell_initial(), ModelParams(z=2, s=0.9, ctilde=1.5)),
        (ghz_initial(), ModelParams(z=3, s=0.0)),
        (plus_product, ModelParams(z=3, s=0.3, ctilde=1.5)),
        (SymmetricVector.from_components(4, {(2, 2, 0): 1.0}),
         ModelParams(z=4, s=0.7, ctilde=0.0)),
    ]
    for v0, p in cases:
        for tau in (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            rho = evolve(v0, p, tau).to_dense()
            assert abs(np.trace(rho).real - 1.0) <= 1e-10, (p, tau)
            assert abs(np.trace(rho).imag) <= 1e-10
            assert np.abs(rho - rho.conj().T).max() <= 1e-10, (p, tau)
            assert np.linalg.eigvalsh(rho).min() >= -1e-10, (p, tau)


def test_criterion_12_large_z_performance_and_compression():
    """200 propagation steps at Z = 20 (1771 sector states) in under one
    second, plus the exact state-count compression ratio at Z = 10."""
    z = 20
    p = ModelParams(z=z, s=0.4)
    v0 = SymmetricVector.from_components(z, {(10, 10, 0): 1.0})
    evolve(v0, p, 0.1)                      # warm the cached basis tables
    taus = np.linspace(0.0, 10.0, 200)
    start = time.perf_counter()
    traces = [evolve(v0, p, float(tau)).trace() for tau in taus]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"200-point sweep took {elapsed:.3f} s"
    assert np.abs(np.array(traces) - 1.0).max() <= 1e-8

    assert basis(10).dimension == 286
    # dense Liouvillian state count per sector state: about 3670 at Z = 10
    assert 3660 * 286 <= 4 ** 10 <= 3680 * 286
