"""Physical read-outs and two entangled-state scenarios with exact weights.

Read-outs: trace, atomic inversion <S3> = <Q3>, von Neumann entropy.  Only
the unit-trace block (q = Z/2, sigma3 = 0), the leading Z+1 slots, contributes
to any trace, so the inversion is a weighted sum over those slots alone.  A
state with nothing outside them (every `dicke:` start, and every `config:` start
with gamma = delta = 0, at any tau) is diagonal: its entropy is the Shannon sum
-sum c_beta log(c_beta / C(Z, beta)), O(Z) at any Z.  Any other state's entropy
reads Hermiticity from the sector vector (`hermiticity_defect`) and
diagonalizes the dense matrix, capped by the oracle limit: as float64, with the
real symmetric eigensolver, when no coefficient has an imaginary part, else as
complex.  `matrix_entropy` (the two dense models) diagonalizes its input as
given.  A non-finite, non-Hermitian or non-positive state raises
ArithmeticError, and a log base that is not finite and > 1 ValueError.

Scenarios: the two-site Bell triplet (|10>+|01>)/sqrt(2) and the three-site
GHZ state (|111>-|000>)/sqrt(2), both of which stay inside a handful of
basis states for all tau, with closed-form weights.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Tuple

import numpy as np

from .lindblad_solver import ModelParams, _check_domain
from .su4_algebra import _check_dense_size
from .symmetric_sector import (SymmetricVector, _dense_matrix, hermiticity_defect,
                               qnum)


def atomic_inversion(v: SymmetricVector) -> float:
    """<S3> = sum of coeff * q3 over the trace-carrying components, the
    leading Z+1 slots, on which q3 = Z/2 - k."""
    q3 = 0.5 * v.z - np.arange(v.z + 1)
    return float(np.real(np.sum(v.coeffs[:v.z + 1] * q3)))


def _check_hermitian(defect: float) -> None:
    if not defect <= 1e-10:      # a NaN defect fails this test too
        raise ArithmeticError("matrix has non-finite entries" if math.isnan(defect) else
                              f"matrix is not Hermitian (defect {defect:.3e})")


def _in_base(nats: float, base: float) -> float:
    if not 1.0 < base < math.inf:      # a NaN base fails this test too
        raise ValueError(f"entropy base must be finite and > 1, got {base!r}")
    out = nats / math.log(base)
    return 0.0 if out == 0.0 else out   # avoid -0.0 in serialized output


def _spectrum_nats(evals: np.ndarray) -> float:
    """Entropy in nats from a spectrum; the checks are `matrix_entropy`'s."""
    if not np.isfinite(evals).all():
        raise ArithmeticError("non-finite eigenvalue in the spectrum")
    low = float(evals.min(initial=0.0))
    if not low >= -1e-10:
        raise ArithmeticError(f"negative eigenvalue {low:.3e} in the spectrum")
    nz = evals[evals > 0.0]
    return float(-(nz * np.log(nz)).sum())


def _diagonal_nats(v: SymmetricVector) -> float:
    """Entropy in nats of a state whose only nonzero slab is n = Z: slot beta
    is C(Z, beta) eigenvalues c_beta / C(Z, beta), with Hermiticity defect
    2 |Im c_beta| / C(Z, beta).  A c_beta below -1e-10 is an error."""
    c = v.coeffs[:v.z + 1]
    if not np.isfinite(c).all():
        raise ArithmeticError("non-finite coefficient in slab n = Z")
    log_mult = np.array([math.log(math.comb(v.z, b)) for b in range(v.z + 1)])
    _check_hermitian(float((2.0 * np.abs(c.imag) * np.exp(-log_mult)).max()))
    low = float(c.real.min())
    if not low >= -1e-10:
        raise ArithmeticError(f"negative level population {low:.3e} in slab n = Z")
    live = c.real > 0.0               # smaller negatives count as 0
    return float(-(c.real[live] * (np.log(c.real[live]) - log_mult[live])).sum())


def dense_eigenvalues(v: SymmetricVector) -> np.ndarray:
    """Eigenvalues of the dense matrix of a Hermitian v, from the real
    symmetric solver when no coefficient has an imaginary part."""
    return np.linalg.eigvalsh(_dense_matrix(v))


def matrix_entropy(rho: np.ndarray, base: float = 2.0) -> float:
    """Entropy of a density matrix given densely.  Hermiticity is required
    to 1e-10; non-finite eigenvalues and ones below -1e-10 are an error,
    small negatives from roundoff are clamped to zero."""
    rho = np.asarray(rho)
    with np.errstate(invalid="ignore"):      # an inf entry gives an inf or NaN defect
        _check_hermitian(float(np.abs(rho - rho.conj().T).max()))
    return _in_base(_spectrum_nats(np.linalg.eigvalsh(rho)), base)


def von_neumann_entropy(v: SymmetricVector, base: float = 2.0) -> float:
    """-Tr rho log rho (log base 2 by default).  A state exactly 0 outside slab
    n = Z is diagonal: an O(dimension) scan, then O(Z), at any Z.  Any other state
    is refused above the oracle limit first, then reads Hermiticity from the
    sector vector and its spectrum from `dense_eigenvalues`."""
    if not v.coeffs[v.z + 1:].any():         # a NaN outside the slab counts as nonzero
        return _in_base(_diagonal_nats(v), base)
    _check_dense_size(v.z)
    _check_hermitian(hermiticity_defect(v))
    return _in_base(_spectrum_nats(dense_eigenvalues(v)), base)


def bell_initial() -> SymmetricVector:
    """Two-site triplet Bell projector: P_{1,0,0} + P_{0,0,0}."""
    return SymmetricVector.from_components(
        2, {qnum(1, 0, 0): 1, qnum(0, 0, 0): 1})


def bell_weights_reference(s: float, tau: float) -> Tuple[float, float, float, float]:
    """Closed-form Bell-scenario weights (b1, b2, b3, b4) on the components
    P_{1,1,0}, P_{1,0,0}, P_{1,-1,0}, P_{0,0,0} at pumping weight s:

    b1 = s f (1-(1-s)f), b2 = 1 - f(1-2s(1-s)f), b3 = (1-s)f(1-sf), b4 = 1-f.
    """
    ModelParams(z=2, s=s)   # validates s
    f = _check_domain(tau)
    return (
        s * f * (1.0 - (1.0 - s) * f),
        1.0 - f * (1.0 - 2.0 * s * (1.0 - s) * f),
        (1.0 - s) * f * (1.0 - s * f),
        1.0 - f,
    )


def ghz_initial() -> SymmetricVector:
    """Three-site GHZ projector (|111>-|000>)(<111|-<000|)/2:

    (P_{3/2,3/2,0} + P_{3/2,-3/2,0} - P_{0,0,3/2} - P_{0,0,-3/2}) / 2
    """
    h = Fraction(1, 2)
    t = Fraction(3, 2)
    return SymmetricVector.from_components(3, {
        qnum(t, t, 0): h,
        qnum(t, -t, 0): h,
        qnum(0, 0, t): -h,
        qnum(0, 0, -t): -h,
    })


def ghz_weights_reference(tau: float) -> Tuple[float, float, float, float, float]:
    """GHZ pure-decay weights (c1..c5): c1..c4 on the q = 3/2 ladder
    (q3 = 3/2 down to -3/2) and c5 the magnitude of the two coherence
    components P_{0,0,+-3/2}, which enter with a minus sign."""
    f = _check_domain(tau)
    return (
        0.5 * math.exp(-3.0 * tau),
        1.5 * math.exp(-2.0 * tau) * f,
        1.5 * math.exp(-tau) * f * f,
        0.5 * (1.0 + f ** 3),
        0.5 * math.exp(-1.5 * tau),
    )
