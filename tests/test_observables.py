"""Inversion, entropies, reference weight formulas, series container."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicke4 import observables as obs
from dicke4.lindblad_solver import ModelParams, evolve
from dicke4.symmetric_sector import SymmetricVector, qnum

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

