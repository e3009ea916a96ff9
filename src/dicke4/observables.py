"""Physical read-outs and two entangled-state scenarios with exact weights.

Read-outs: trace, atomic inversion <S3> = <Q3>, von Neumann entropy.  Only
the unit-trace block (q = Z/2, sigma3 = 0), the leading Z+1 slots, contributes
to any trace, so the inversion is a weighted sum over those slots alone; the
entropy goes through dense reconstruction and is capped by the oracle limit.

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
from .symmetric_sector import SymmetricVector, qnum


def atomic_inversion(v: SymmetricVector) -> float:
    """<S3> = sum of coeff * q3 over the trace-carrying components, the
    leading Z+1 slots, on which q3 = Z/2 - k."""
    q3 = 0.5 * v.z - np.arange(v.z + 1)
    return float(np.real(np.sum(v.coeffs[:v.z + 1] * q3)))


def matrix_entropy(rho: np.ndarray, base: float = 2.0) -> float:
    """Entropy of a density matrix given densely.  Hermiticity is required
    to 1e-10; eigenvalues below -1e-10 are an error, small negatives from
    roundoff are clamped to zero."""
    defect = np.abs(rho - rho.conj().T).max()
    if defect > 1e-10:
        raise ArithmeticError(f"matrix is not Hermitian (defect {defect:.3e})")
    evals = np.linalg.eigvalsh(rho)
    low = float(evals.min(initial=0.0))
    if low < -1e-10:
        raise ArithmeticError(f"negative eigenvalue {low:.3e} in the spectrum")
    evals = np.clip(evals, 0.0, None)
    nz = evals[evals > 0.0]
    out = float(-(nz * np.log(nz)).sum() / math.log(base))
    return 0.0 if out == 0.0 else out   # avoid -0.0 in serialized output


def von_neumann_entropy(v: SymmetricVector, base: float = 2.0) -> float:
    """-Tr rho log rho (log base 2 by default), via dense reconstruction."""
    return matrix_entropy(v.to_dense(), base=base)


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
