"""Brute-force reference on the 2^Z space, checked against itself and the sector."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from dicke4 import dense_oracle as do
from dicke4 import su4_algebra as su4
from dicke4 import symmetric_sector as sec
from dicke4.lindblad_solver import ModelParams, evolve


def random_hermitian(rng, dim):
    a = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1))
                   for _ in range(dim)] for _ in range(dim)])
    return a + a.conj().T


def test_single_site_matrices_are_matrix_units():
    assert np.array_equal(do.SIGMA_PLUS @ do.SIGMA_MINUS, do.PROJ_UP)
    assert np.array_equal(do.SIGMA_MINUS @ do.SIGMA_PLUS, do.PROJ_DOWN)
    assert np.array_equal(do.PROJ_UP - do.PROJ_DOWN, do.SIGMA_3)


def test_site_operator_embedding():
    z = 3
    # site 1 is the leftmost kron factor (most significant ket bit)
    sp1 = do.site_operator(z, 1, "sp").toarray()
    expect = np.kron(do.SIGMA_PLUS, np.eye(4))
    assert np.array_equal(sp1, expect)
    with pytest.raises(ValueError):
        do.site_operator(z, 4, "sp")


def test_superoperator_dense_matches_word_algebra():
    rng = random.Random(13)
    for z in (1, 2, 3):
        for _ in range(8):
            word = "".join(rng.choice("udsc") for _ in range(z))
            rho = su4.to_dense(word, z)
            for op in su4.SUPEROPERATORS:
                via_words = su4.to_dense(su4.apply_superoperator(op, word), z)
                direct = do.superoperator_dense(op, z, rho)
                assert np.abs(via_words - direct).max() <= 1e-12, (op, word)


def test_lindblad_single_site_decay():
    # pure damping moves the excited population to the ground state
    rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    out = do.lindblad_apply(1, 0.0, rho)
    expect = np.array([[-1.0, 0.0], [0.0, 1.0]])
    assert np.abs(out - expect).max() <= 1e-15


def test_lindblad_balanced_pumping_fixes_maximally_mixed():
    for z in (1, 2, 3):
        rho = np.eye(2 ** z, dtype=complex) / 2 ** z
        out = do.lindblad_apply(z, 0.5, rho, ctilde=1.7)
        assert np.abs(out).max() <= 1e-15


def test_lindblad_apply_is_traceless():
    rng = random.Random(17)
    for z in (1, 2, 3):
        rho = random_hermitian(rng, 2 ** z)
        for s, ct in ((0.0, 0.5), (0.3, 0.5), (0.8, 1.2)):
            out = do.lindblad_apply(z, s, rho, ctilde=ct)
            assert abs(np.trace(out)) <= 1e-12


def _lindblad_apply_sparse_factors(z, s, rho, ctilde):
    """`lindblad_apply` with every factor taken from the sparse `site_operator`."""
    out = np.zeros_like(rho, dtype=complex)
    for i in range(1, z + 1):
        spi, smi, s3i, up, dn = (do.site_operator(z, i, k) for k in ("sp", "sm", "s3", "up", "dn"))
        out -= 0.5 * (1.0 - s) * (up @ rho + rho @ up - 2.0 * (smi @ rho @ spi))
        out -= 0.5 * s * (dn @ rho + rho @ dn - 2.0 * (spi @ rho @ smi))
        if ctilde != 0.5:
            out -= (2.0 * ctilde - 1.0) / 4.0 * (rho - s3i @ rho @ s3i)
    return out


def test_vectorized_liouvillian_matches_direct_application():
    rng = random.Random(19)
    for z in (1, 2, 3, 4):
        rho = random_hermitian(rng, 2 ** z)
        for s, ct in ((0.0, 0.5), (0.45, 0.0), (1.0, 2.0)):
            lv = do.liouvillian_sparse(z, s, ct)
            direct = do.lindblad_apply(z, s, rho, ctilde=ct)
            via_matrix = (lv @ rho.reshape(-1)).reshape(rho.shape)
            assert np.abs(direct - via_matrix).max() <= 1e-12
            # the dense right-hand factors are 0/1 matrices: the same numbers
            assert np.array_equal(direct, _lindblad_apply_sparse_factors(z, s, rho, ct))


def test_dense_propagate_keeps_physicality():
    rng = random.Random(23)
    z = 3
    a = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1))
                   for _ in range(8)] for _ in range(8)])
    rho0 = a @ a.conj().T
    rho0 /= np.trace(rho0).real
    for tau in (0.0, 0.2, 1.0, 5.0):
        rho = do.dense_propagate(z, 0.35, rho0, tau, ctilde=0.9)
        assert abs(np.trace(rho) - 1.0) <= 1e-10
        assert np.abs(rho - rho.conj().T).max() <= 1e-10
        assert np.linalg.eigvalsh(rho).min() >= -1e-10


def test_dense_propagate_preserves_permutation_symmetry():
    z = 3
    rho0 = sec.embed_dense(z, sec.qnum(Fraction(3, 2), Fraction(1, 2), 0))
    for tau in (0.5, 2.0):
        rho = do.dense_propagate(z, 0.6, rho0, tau)
        assert sec.permutation_defect(z, rho) <= 1e-10


def test_dense_propagate_matches_sector_at_seven_sites():
    z, tau = 7, 1.5
    v0 = sec.SymmetricVector(z, np.random.default_rng(7).standard_normal(
        sec.sector_dimension(z)))
    p = ModelParams(z=z, s=0.3, ctilde=0.9)
    rho = do.dense_propagate(z, p.s, v0.to_dense(), tau, ctilde=p.ctilde)
    assert np.abs(rho - evolve(v0, p, tau).to_dense()).max() <= 1e-12


def test_dense_propagate_stationary_state():
    # at s the single-site fixed point is diag(s, 1-s); the product state
    # over z sites must be a fixed point of the full propagator
    z, s = 2, 0.3
    site = np.diag([s, 1.0 - s]).astype(complex)
    rho0 = np.kron(site, site)
    rho = do.dense_propagate(z, s, rho0, 7.0)
    assert np.abs(rho - rho0).max() <= 1e-10


def test_dense_propagate_shape_guard():
    with pytest.raises(ValueError):
        do.dense_propagate(2, 0.0, np.eye(3, dtype=complex), 1.0)


@pytest.mark.parametrize("s, ctilde, tau", [
    (1.5, 0.5, 1.0), (float("nan"), 0.5, 1.0), (0.5, -1.0, 1.0),
    (0.5, 0.5, -1.0), (0.5, 0.5, float("nan")),
    (1.5, 0.5, 0.0),                      # checked before the tau = 0 shortcut
])
def test_dense_propagate_validates_parameters(s, ctilde, tau):
    with pytest.raises(ValueError):
        do.dense_propagate(2, s, np.eye(4, dtype=complex) / 4.0, tau, ctilde=ctilde)


def test_dicke_state_three_sites():
    ket = do.dicke_state_dense(3, Fraction(1, 2))
    expect = np.zeros(8)
    # two up spins: indices with exactly one set bit (bit 0 means |1>)
    expect[[0b001, 0b010, 0b100]] = 1.0 / math.sqrt(3.0)
    assert np.abs(ket - expect).max() <= 1e-15


def test_dicke_state_rejects_bad_projection():
    with pytest.raises(ValueError):
        do.dicke_state_dense(3, 1)        # integer projection on 3 sites
    with pytest.raises(ValueError):
        do.dicke_state_dense(2, 2)


def test_collective_s3_diagonal():
    diag = do.collective_s3_diag(2)
    assert np.array_equal(diag, np.array([1.0, 0.0, 0.0, -1.0]))
    # index 0 is |11>, all spins up


def test_oracle_limit_guard(monkeypatch):
    monkeypatch.setenv(su4.ORACLE_LIMIT_ENV, "2")
    with pytest.raises(ValueError):
        do.dense_propagate(3, 0.0, np.eye(8, dtype=complex) / 8.0, 1.0)
    with pytest.raises(ValueError):
        do.dicke_state_dense(3, Fraction(3, 2))
