"""Inversion, entropies, reference weight formulas, series container."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicke4 import dense_oracle as do
from dicke4 import observables as obs
from dicke4 import su4_algebra as su4
from dicke4 import symmetric_sector as sec
from dicke4.lindblad_solver import ModelParams, evolve, spectrum
from dicke4.symmetric_sector import (Config, SymmetricVector, extract_coefficients,
                                     hermiticity_defect, qn_from_config, qnum,
                                     sector_dimension)

unit_floats = st.floats(min_value=0.0, max_value=1.0,
                        allow_nan=False, allow_infinity=False)
taus = st.floats(min_value=0.0, max_value=10.0,
                 allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------- inversion

def test_inversion_of_basis_states():
    v = SymmetricVector.from_components(4, {(2, 1, 0): 1.0})
    assert obs.atomic_inversion(v) == pytest.approx(1.0, abs=1e-15)
    # traceless states carry no inversion
    w = SymmetricVector.from_components(4, {(1, 1, 1): 3.0})
    assert obs.atomic_inversion(w) == 0.0


def test_inversion_is_linear_in_the_coefficients():
    v = SymmetricVector.from_components(
        2, {(1, 1, 0): 0.25, (1, -1, 0): 0.75})
    assert obs.atomic_inversion(v) == pytest.approx(0.25 - 0.75, abs=1e-15)


# ---------------------------------------------------------------- entropies

def test_entropy_of_pure_and_mixed_states():
    assert obs.matrix_entropy(np.diag([1.0, 0.0])) == 0.0
    assert obs.matrix_entropy(np.eye(2) / 2.0) == pytest.approx(1.0, abs=1e-12)
    assert obs.matrix_entropy(np.eye(4) / 4.0) == pytest.approx(2.0, abs=1e-12)
    nats = obs.matrix_entropy(np.eye(2) / 2.0, base=math.e)
    assert nats == pytest.approx(math.log(2.0), abs=1e-12)


def test_entropy_rejects_unphysical_matrices():
    with pytest.raises(ArithmeticError):
        obs.matrix_entropy(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ArithmeticError):
        obs.matrix_entropy(np.diag([1.5, -0.5]))


def test_entropy_clamps_tiny_negative_eigenvalues():
    rho = np.diag([1.0 + 5e-11, -5e-11])
    assert obs.matrix_entropy(rho) == pytest.approx(0.0, abs=1e-9)


def test_entropy_rejects_nan_and_inf():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ArithmeticError):
            obs.matrix_entropy(np.full((2, 2), bad))
        with pytest.raises(ArithmeticError):
            obs.matrix_entropy(np.diag([1.0, bad]).astype(complex))
        v = SymmetricVector.from_components(3, {qnum(Fraction(3, 2), Fraction(3, 2), 0): 1.0})
        v.coeffs[5] = bad
        with pytest.raises(ArithmeticError):
            obs.von_neumann_entropy(v)
    v = SymmetricVector.from_components(3, {qnum(Fraction(3, 2), Fraction(3, 2), 0): 1.0})
    v.coeffs = v.coeffs.astype(complex)
    v.coeffs[0] += complex(0, math.nan)
    with pytest.raises(ArithmeticError, match="non-finite"):
        obs.von_neumann_entropy(v)


def test_entropy_refuses_a_state_above_the_oracle_limit_first(monkeypatch):
    monkeypatch.setenv(su4.ORACLE_LIMIT_ENV, "3")
    v = SymmetricVector.from_components(4, {(2, 2, 0): 1.0})
    # a Dicke state is diagonal: its entropy takes no dense matrix
    assert obs.von_neumann_entropy(v) == 0.0
    assert obs.von_neumann_entropy(evolve(v, ModelParams(z=4, s=0.3), 1.0)) > 0.0
    for bad in (math.nan, 0.5):       # a non-finite and a non-Hermitian state
        v.coeffs[-1] = bad
        with pytest.raises(ValueError, match="oracle limit"):
            obs.von_neumann_entropy(v)


def _complex_solver_entropy(rho):
    evals = np.clip(np.linalg.eigvalsh(rho.astype(complex)), 0.0, None)
    nz = evals[evals > 0.0]
    return float(-(nz * np.log2(nz)).sum())


def _entropy_cases():
    rng = np.random.default_rng(15)
    for z in range(1, 9):
        for q3 in (Fraction(z, 2), Fraction(z, 2) - z // 2):
            v0 = SymmetricVector.from_components(z, {(Fraction(z, 2), q3, 0): 1.0})
            p = ModelParams(z=z, s=float(rng.uniform(0.2, 0.8)),
                            ctilde=float(rng.uniform(0.5, 1.5)))
            yield f"dicke z={z} q3={q3}", evolve(v0, p, float(rng.uniform(0.1, 2.0)))
        amp = rng.normal(size=z + 1) + 1j * rng.normal(size=z + 1)
        amp /= np.linalg.norm(amp)
        psi = sum(a * do.dicke_state_dense(z, Fraction(z, 2) - k) for k, a in enumerate(amp))
        yield f"random-symmetric z={z}", extract_coefficients(z, np.outer(psi, psi.conj()))
        v0 = SymmetricVector.from_components(z, {(Fraction(z, 2), Fraction(z, 2), 0): 1.0})
        v = evolve(v0, ModelParams(z=z, s=0.3), 0.9)
        yield f"float cast to complex z={z}", SymmetricVector(z, v.coeffs.astype(complex))
        v0.coeffs[:z + 1] = rng.dirichlet(np.ones(z + 1))
        yield f"diagonal mixture z={z}", evolve(v0, ModelParams(z=z, s=0.6, ctilde=0.9), 0.4)


def test_sector_entropy_matches_the_complex_dense_solver():
    for name, v in _entropy_cases():
        got = obs.von_neumann_entropy(v)
        rho = v.to_dense()
        assert abs(got - obs.matrix_entropy(rho)) <= 1e-12, name
        assert abs(got - _complex_solver_entropy(rho)) <= 1e-12, name


def test_entropy_takes_the_real_solver_for_real_values(monkeypatch):
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(a.dtype) or eigvalsh(a))
    # a real superposition of Dicke kets: positive semidefinite, with
    # coherences outside slab n = Z
    psi = sum(a * do.dicke_state_dense(4, 2 - k) for k, a in enumerate([0.5, -1, 0, 2, 0.7]))
    psi = psi.real / np.linalg.norm(psi)
    real = evolve(extract_coefficients(4, np.outer(psi, psi)), ModelParams(z=4, s=0.4), 0.5)
    assert real.coeffs.dtype == np.float64 and real.coeffs[5:].any()
    cplx = SymmetricVector(4, real.coeffs.astype(complex))
    obs.von_neumann_entropy(real)
    obs.von_neumann_entropy(cplx)
    psi = np.array([1.0, 1j, 1j, 0.0]) / math.sqrt(3.0)
    obs.von_neumann_entropy(extract_coefficients(2, np.outer(psi, psi.conj())))
    assert seen == [np.float64] * 2 + [np.complex128]
    # a diagonal state, real or complex, never reaches the eigensolver
    diagonal = evolve(SymmetricVector.from_components(4, {(2, 1, 0): 1.0}),
                      ModelParams(z=4, s=0.4), 0.5)
    obs.von_neumann_entropy(diagonal)
    obs.von_neumann_entropy(SymmetricVector(4, diagonal.coeffs.astype(complex)))
    assert len(seen) == 3


# ------------------------------------------------------- diagonal entropies

def _binary_entropy(p):
    return 0.0 if p in (0.0, 1.0) else -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _diagonal_start(z, beta, config):
    """P_{Z/2, Z/2 - beta, 0}, labelled as a `dicke:` or as a `config:` start."""
    label = (qn_from_config(Config(z - beta, beta, 0, 0)) if config
             else (Fraction(z, 2), Fraction(z, 2) - beta, 0))
    return SymmetricVector.from_components(z, {label: 1.0})


@settings(max_examples=60, deadline=None)
@given(z=st.integers(1, 9), data=st.data(), config=st.booleans(), s=unit_floats,
       ctilde=st.floats(0.5, 3.0), tau=taus)
def test_diagonal_entropy_matches_the_dense_solver(z, data, config, s, ctilde, tau):
    beta = data.draw(st.integers(0, z))
    v = evolve(_diagonal_start(z, beta, config), ModelParams(z=z, s=s, ctilde=ctilde), tau)
    assert not v.coeffs[z + 1:].any()
    assert abs(obs.von_neumann_entropy(v) - obs.matrix_entropy(v.to_dense())) <= 1e-12


def test_unevolved_diagonal_basis_state_has_entropy_log_binomial():
    for z in (*range(1, 13), 1000):
        for beta in range(z + 1) if z < 13 else (0, 1, 500, 999):
            v = SymmetricVector(z, np.zeros(sector_dimension(z)))
            v.coeffs[beta] = 1.0
            want = math.log2(math.comb(z, beta))
            assert obs.von_neumann_entropy(v) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_stationary_entropy_is_z_binary_entropies_at_large_z(monkeypatch):
    # the diagonal route takes no oracle limit, no pairing table, no dense solver
    def refuse(*_):
        raise AssertionError("the diagonal route left slab n = Z")
    for name in ("_check_dense_size", "hermiticity_defect", "dense_eigenvalues"):
        monkeypatch.setattr(obs, name, refuse)
    monkeypatch.setattr(sec, "_slot_pairing", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for z in (20, 200, 1000):
        _, v = spectrum(ModelParams(z=z, s=0.3))
        start = time.perf_counter()
        got = obs.von_neumann_entropy(v)
        assert time.perf_counter() - start < 1.0
        assert got == pytest.approx(z * _binary_entropy(0.3), rel=1e-13, abs=0.0)


def test_diagonal_entropy_refuses_non_finite_and_negative_levels():
    for bad in (math.nan, math.inf, -math.inf, complex(0.5, math.nan), complex(0.5, math.inf)):
        v = SymmetricVector(3, np.zeros(sector_dimension(3), dtype=complex))
        v.coeffs[:4] = 0.25
        v.coeffs[2] = bad
        with pytest.raises(ArithmeticError, match="non-finite"):
            obs.von_neumann_entropy(v)
    v = SymmetricVector(3, np.zeros(sector_dimension(3)))
    v.coeffs[:4] = [0.5, 0.5, 1e-9, -1e-9]
    with pytest.raises(ArithmeticError, match="negative"):
        obs.von_neumann_entropy(v)
    v.coeffs[:4] = [0.5, 5e-11, -5e-11, 0.5]      # roundoff: clamped to 0
    assert obs.von_neumann_entropy(v) == pytest.approx(1.0, abs=1e-8)


def test_diagonal_entropy_refuses_exactly_the_non_hermitian_states():
    rng = np.random.default_rng(7)
    verdicts = set()
    for z in range(1, 10):
        for _ in range(20):
            v = SymmetricVector(z, np.zeros(sector_dimension(z), dtype=complex))
            v.coeffs[:z + 1] = rng.dirichlet(np.ones(z + 1))
            beta = int(rng.integers(0, z + 1))
            v.coeffs[beta] += 0.5j * math.comb(z, beta) * 10.0 ** rng.uniform(-12, -8)
            hermitian = hermiticity_defect(v) <= 1e-10
            verdicts.add(hermitian)
            if hermitian:
                assert obs.von_neumann_entropy(v) >= 0.0
            else:
                with pytest.raises(ArithmeticError, match="not Hermitian"):
                    obs.von_neumann_entropy(v)
    assert verdicts == {True, False}


@pytest.mark.parametrize("base", [1.0, 0.5, -2.0, math.nan, math.inf])
def test_entropy_refuses_a_meaningless_base(base):
    mixture = SymmetricVector.from_components(
        1, {(Fraction(1, 2), Fraction(1, 2), 0): 0.5,
            (Fraction(1, 2), Fraction(-1, 2), 0): 0.5})
    for v in (mixture, obs.bell_initial()):        # the diagonal and the dense route
        with pytest.raises(ValueError, match="base"):
            obs.von_neumann_entropy(v, base=base)
    for rho in (np.eye(2) / 2.0, np.diag([1.0, 0.0])):
        with pytest.raises(ValueError, match="base"):
            obs.matrix_entropy(rho, base=base)


def test_sector_entropy_single_site_mixture():
    v = SymmetricVector.from_components(
        1, {(Fraction(1, 2), Fraction(1, 2), 0): 0.5,
            (Fraction(1, 2), Fraction(-1, 2), 0): 0.5})
    assert obs.von_neumann_entropy(v) == pytest.approx(1.0, abs=1e-12)


def test_sector_entropy_of_bell_state_is_zero():
    assert obs.von_neumann_entropy(obs.bell_initial()) == pytest.approx(0.0, abs=1e-12)


# ------------------------------------------------------- reference weights

def test_bell_initial_components():
    v = obs.bell_initial()
    assert v.z == 2
    assert v.coeff((1, 0, 0)) == 1.0
    assert v.coeff((0, 0, 0)) == 1.0
    assert np.count_nonzero(v.coeffs) == 2


def test_bell_weights_at_zero_time():
    assert obs.bell_weights_reference(0.3, 0.0) == (0.0, 1.0, 0.0, 1.0)


@given(unit_floats, taus)
@settings(max_examples=200, deadline=None)
def test_bell_weights_sum_rules(s, tau):
    b1, b2, b3, b4 = obs.bell_weights_reference(s, tau)
    # unit trace: the traceless fourth component does not contribute
    assert b1 + b2 + b3 == pytest.approx(1.0, abs=1e-12)
    assert b4 == pytest.approx(math.exp(-tau), abs=1e-14)
    assert min(b1, b2, b3, b4) >= 0.0


def test_bell_weights_balanced_closed_form():
    for tau in (0.0, 0.3, 1.0, 4.0):
        f = -math.expm1(-tau)
        b1, b2, b3, b4 = obs.bell_weights_reference(0.5, tau)
        assert b1 == pytest.approx(0.5 * f - 0.25 * f * f, abs=1e-15)
        assert b3 == b1
        assert b2 == pytest.approx(1.0 - f + 0.5 * f * f, abs=1e-15)


@given(unit_floats, taus)
@settings(max_examples=50, deadline=None)
def test_bell_weights_match_the_solver(s, tau):
    v = evolve(obs.bell_initial(), ModelParams(z=2, s=s), tau)
    b1, b2, b3, b4 = obs.bell_weights_reference(s, tau)
    assert v.coeff((1, 1, 0)) == pytest.approx(b1, abs=1e-12)
    assert v.coeff((1, 0, 0)) == pytest.approx(b2, abs=1e-12)
    assert v.coeff((1, -1, 0)) == pytest.approx(b3, abs=1e-12)
    assert v.coeff((0, 0, 0)) == pytest.approx(b4, abs=1e-12)


def test_bell_weights_domain():
    with pytest.raises(ValueError):
        obs.bell_weights_reference(1.2, 1.0)
    with pytest.raises(ValueError):
        obs.bell_weights_reference(0.5, -1.0)


def test_ghz_weights_domain():
    for tau in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            obs.ghz_weights_reference(tau)


def test_ghz_initial_components():
    v = obs.ghz_initial()
    h = Fraction(3, 2)
    assert v.z == 3
    assert v.coeff((h, h, 0)) == 0.5
    assert v.coeff((h, -h, 0)) == 0.5
    assert v.coeff((0, 0, h)) == -0.5
    assert v.coeff((0, 0, -h)) == -0.5
    assert np.count_nonzero(v.coeffs) == 4


@given(taus)
@settings(max_examples=200, deadline=None)
def test_ghz_weight_sum_rule(tau):
    c1, c2, c3, c4, c5 = obs.ghz_weights_reference(tau)
    assert c1 + c2 + c3 + c4 == pytest.approx(1.0, abs=1e-12)
    assert c5 == pytest.approx(0.5 * math.exp(-1.5 * tau), abs=1e-14)


def test_ghz_weights_at_zero_time():
    assert obs.ghz_weights_reference(0.0) == (0.5, 0.0, 0.0, 0.5, 0.5)


@given(taus)
@settings(max_examples=50, deadline=None)
def test_ghz_weights_match_the_solver(tau):
    v = evolve(obs.ghz_initial(), ModelParams(z=3, s=0.0), tau)
    c1, c2, c3, c4, c5 = obs.ghz_weights_reference(tau)
    h = Fraction(3, 2)
    assert v.coeff((h, h, 0)) == pytest.approx(c1, abs=1e-12)
    assert v.coeff((h, Fraction(1, 2), 0)) == pytest.approx(c2, abs=1e-12)
    assert v.coeff((h, -Fraction(1, 2), 0)) == pytest.approx(c3, abs=1e-12)
    assert v.coeff((h, -h, 0)) == pytest.approx(c4, abs=1e-12)
    assert v.coeff((0, 0, h)) == pytest.approx(-c5, abs=1e-12)
    assert v.coeff((0, 0, -h)) == pytest.approx(-c5, abs=1e-12)

