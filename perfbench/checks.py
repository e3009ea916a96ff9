"""Reference checks for the benchmark's outputs.

Each check is a closed form or a property that the program does not
compute itself.  A check returns None when the output passes and a short
reason when it does not.  Every comparison is written as `not (err <= tol)`
so that a NaN anywhere is a violation.
"""

from __future__ import annotations

import math

import numpy as np

# Observed worst cases on x86-64 doubles: 1.1e-12 for the inversion at
# Z = 60, 5e-14 for the trace, 7e-12 for a pure-state entropy at Z = 9.
# The tolerances leave two to three orders of margin and stay far below a
# real error.
TOL_INVERSION = 1e-10       # times Z
TOL_TRACE = 1e-10
TOL_REL = 1e-10
TOL_ENTROPY = 1e-8
N_VERIFY_CHECKS = 18


def _max_err(got, want) -> float:
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return math.inf
    if got.size == 0:
        return 0.0
    return float(np.max(np.abs(got - want)))


def _bad(err: float, tol: float) -> bool:
    return not (err <= tol)


def binary_entropy(p: float) -> float:
    """H2(p) in bits."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def inversion_law(z: int, s: float, q3: float, taus) -> np.ndarray:
    """Independent-site law for a unit-trace start with inversion q3:
    <S3>(tau) = Z(s - 1/2) + (Z/2 + q3 - Z s) e^(-tau), for any ctilde."""
    taus = np.asarray(taus, dtype=float)
    return z * (s - 0.5) + (0.5 * z + q3 - z * s) * np.exp(-taus)


def check_grid(taus, tau_max: float, steps: int):
    err = _max_err(taus, np.linspace(0.0, tau_max, steps))
    if _bad(err, 1e-12 * max(1.0, tau_max)):
        return f"tau grid differs from linspace(0, {tau_max}, {steps}) by {err:.3e}"
    return None


def check_trace(traces, expected: float):
    err = _max_err(traces, np.full(len(traces), expected))
    if _bad(err, TOL_TRACE):
        return f"trace departs from {expected} by {err:.3e}"
    return None


def check_inversion(z: int, s: float, q3: float, taus, inversion):
    err = _max_err(inversion, inversion_law(z, s, q3, taus))
    if _bad(err, TOL_INVERSION * z):
        return f"inversion departs from the independent-site law by {err:.3e}"
    return None


def check_linear_inversion(z: int, s: float, taus, traces, inversion):
    """The inversion law for any sector vector, by linearity: with trace t
    and initial inversion m0, <S3>(tau) = t Z(s-1/2) + (m0 - t Z(s-1/2)) e^-tau."""
    t = np.asarray(traces)
    inv = np.asarray(inversion)
    taus = np.asarray(taus, dtype=float)
    if not (t.shape == inv.shape == taus.shape) or t.size == 0:
        return "trace, inversion and grid differ in length"
    fixed = t[0] * z * (s - 0.5)
    err = _max_err(inv, fixed + (inv[0] - fixed) * np.exp(-taus))
    scale = max(1.0, float(np.abs(inv[0])), float(np.abs(t[0])) * z)
    if _bad(err, TOL_INVERSION * scale):
        return f"inversion departs from the linear decay law by {err:.3e}"
    return None


def check_coherence_decay(z: int, ctilde: float, taus, coeffs, slot: int):
    """A pure coherence start config:0,0,Z,0 only decays:
    its own coefficient is e^(-ctilde Z tau), every other coefficient is 0."""
    coeffs = np.asarray(coeffs)
    taus = np.asarray(taus, dtype=float)
    if coeffs.ndim != 2 or coeffs.shape[0] != taus.size or not 0 <= slot < coeffs.shape[1]:
        return "coefficient array does not match the grid"
    want = np.exp(-ctilde * z * taus)
    got = coeffs[:, slot]
    err = float(np.max(np.abs(got - want) / np.maximum(want, 1e-300)))
    if _bad(err, TOL_REL):
        return f"coherence coefficient departs from e^(-ctilde Z tau) by {err:.3e} relative"
    rest = np.delete(coeffs, slot, axis=1)
    if not np.all(rest == 0.0):
        return "a coefficient other than the start's is not exactly 0"
    return None


def check_close(got, want, what: str):
    """Relative agreement of two coefficient vectors (semigroup law, tau = 0)."""
    got = np.asarray(got)
    want = np.asarray(want)
    err = _max_err(got, want)
    scale = max(1.0, float(np.max(np.abs(want))) if want.size else 1.0)
    if _bad(err, TOL_REL * scale):
        return f"{what} violated by {err:.3e}"
    return None


def check_round_trip(rho_back, rho):
    err = _max_err(rho_back, rho)
    if _bad(err, 1e-12):
        return f"to_dense(extract_coefficients(rho)) departs from rho by {err:.3e}"
    return None


def check_entropy_values(got, want, what: str):
    err = _max_err(got, want)
    if _bad(err, TOL_ENTROPY):
        return f"{what}: entropy off by {err:.3e}"
    return None


def product_entropy(z: int, s: float, taus) -> np.ndarray:
    """All-excited start: every site stays in a diagonal state with
    excitation p = s + (1-s) e^-tau, so S = Z H2(p)."""
    return np.array([z * binary_entropy(s + (1.0 - s) * math.exp(-t)) for t in taus])


def check_bell_limit(entropies):
    """Bell start at s = 1/2 ends maximally mixed on two qubits: 2 bits."""
    if len(entropies) == 0:
        return "no Bell entropies"
    return check_entropy_values([entropies[-1]], [2.0], "Bell limit")


def check_ghz_return(entropies):
    """GHZ start at s = 0 decays to the pure all-ground state: 0 bits."""
    if len(entropies) == 0:
        return "no GHZ entropies"
    err = abs(entropies[-1])
    if _bad(err, 1e-6):
        return f"GHZ entropy ends at {entropies[-1]!r}, not 0"
    return check_entropy_values([entropies[0]], [0.0], "GHZ start")


def check_verify_report(rc: int, text: str):
    passes = sum(1 for line in text.splitlines() if line.startswith("PASS"))
    if rc != 0 or passes != N_VERIFY_CHECKS:
        return f"verify exited {rc} with {passes} PASS lines, want 0 and {N_VERIFY_CHECKS}"
    return None


def all_finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a))) for a in arrays)
