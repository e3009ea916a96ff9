"""Fully symmetric operator sector of Z qubits.

Basis states are uniformly symmetrized words, labelled either by factor
counts (alpha, beta, gamma, delta) = (#u, #d, #s, #c) or by the half-integer
triple (q, q3, sigma3):

    q  = (alpha+beta)/2      q3     = (alpha-beta)/2
    sigma = (gamma+delta)/2  sigma3 = (gamma-delta)/2,   q + sigma = Z/2

The symmetrizer averages: P = (1/M) * sum of the M = Z!/(a! b! g! d!)
distinct arrangements, so every generalized Dicke state (gamma=delta=0) has
unit trace and everything else is traceless.  The sector dimension is
(Z+1)(Z+2)(Z+3)/6.

The 18 superoperators close on this sector.  Ladder operators replace one
factor by another, with coefficient equal to the count of the replaced
factor; the "3" operators are diagonal.  Label arithmetic is exact
(Fractions); floats appear only in dense embeddings and coefficient vectors.

Coefficient vectors hold one (n+1) x (m+1) slab (rows beta, columns delta)
per n = alpha + beta = Z - m, by descending n; the generalized Dicke states are
the leading Z+1 slots.  Dense entry (r, c) belongs to the configuration with
beta = #(r & c), delta = #(r & ~c), gamma = #(~r & c), so a cached slot map
makes `to_dense` a gather and `extract_coefficients` a bincount.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import su4_algebra as su4


class Config(NamedTuple):
    """Factor counts of a symmetrized word."""
    alpha: int
    beta: int
    gamma: int
    delta: int

    @property
    def z(self) -> int:
        return self.alpha + self.beta + self.gamma + self.delta


class QuantumNumbers(NamedTuple):
    """(q, q3, sigma3) labels as exact Fractions."""
    q: Fraction
    q3: Fraction
    sigma3: Fraction


def qnum(q, q3, sigma3) -> QuantumNumbers:
    """Coerce a label triple to exact Fractions."""
    return QuantumNumbers(Fraction(q), Fraction(q3), Fraction(sigma3))


def qn_from_config(cfg: Config) -> QuantumNumbers:
    a, b, g, d = cfg
    return QuantumNumbers(Fraction(a + b, 2), Fraction(a - b, 2), Fraction(g - d, 2))


def config_from_qn(z: int, qn: QuantumNumbers) -> Config:
    """Inverse labelling; raises ValueError on labels outside the sector."""
    q, q3, sigma3 = Fraction(qn[0]), Fraction(qn[1]), Fraction(qn[2])
    sigma = Fraction(z, 2) - q
    counts = (q + q3, q - q3, sigma + sigma3, sigma - sigma3)
    if any(x.denominator != 1 or x < 0 for x in counts):
        raise ValueError(f"labels {tuple(qn)} are not realizable at z={z}")
    return Config(*(int(x) for x in counts))


def multiplicity(cfg: Config) -> int:
    """Number of distinct arrangements, Z!/(alpha! beta! gamma! delta!)."""
    a, b, g, d = cfg
    z = a + b + g + d
    return math.comb(z, a) * math.comb(z - a, b) * math.comb(z - a - b, g)


def dual_qn(qn: QuantumNumbers) -> QuantumNumbers:
    """Trace-dual partner label: sigma3 flips sign."""
    return QuantumNumbers(qn[0], qn[1], -qn[2])


def sector_dimension(z: int) -> int:
    if z < 1:
        raise ValueError(f"need at least one site, got z={z}")
    return (z + 1) * (z + 2) * (z + 3) // 6


def _slab_offset(z: int, n):
    """First slot of slab n: the sizes (k+1)(Z-k+1) of the slabs k > n, summed."""
    return sector_dimension(z) - (n + 1) * (n + 2) * (3 * z - 2 * n + 3) // 6


@lru_cache(maxsize=None)
def _slab_table(z: int):
    """First slot of every slab, by descending n, and its (n, slice) pair."""
    starts = _slab_offset(z, np.arange(z, -1, -1))
    bounds = [*starts.tolist(), sector_dimension(z)]
    return starts, [(z - k, slice(bounds[k], bounds[k + 1])) for k in range(z + 1)]


def basis_slot(z: int, qn) -> int:
    """Position of a label in the coefficient vector, in closed form; raises
    ValueError on labels outside the sector."""
    a, b, _, d = config_from_qn(z, qnum(*qn))
    return _slab_offset(z, a + b) + b * (z - a - b + 1) + d


@lru_cache(maxsize=None)
def _dense_layout(z: int):
    """Slot of every dense entry (r, c), in the smallest integer dtype, and
    each slot's multiplicity; built row by row, with no wider 2^Z x 2^Z array."""
    dim = 2 ** z
    bits = np.arange(dim, dtype=np.min_scalar_type(dim - 1))
    pop = np.bitwise_count(bits).astype(int)
    slots = np.empty((dim, dim), dtype=np.min_scalar_type(sector_dimension(z) - 1))
    for r in range(dim):
        beta = np.bitwise_count(bits & bits[r])
        n = z - pop[r] - pop + 2 * beta
        slots[r] = _slab_offset(z, n) + beta * (z + 1 - n) + pop[r] - beta
    mult = np.bincount(slots.ravel(), minlength=sector_dimension(z)).astype(float)
    slots.flags.writeable = mult.flags.writeable = False
    return slots, mult


# ladder superoperator -> (replaced factor, replacement factor)
_REPLACEMENT = {
    "Q+": ("d", "u"), "Q-": ("u", "d"),
    "Sigma+": ("c", "s"), "Sigma-": ("s", "c"),
    "M+": ("c", "u"), "M-": ("u", "c"),
    "N+": ("d", "s"), "N-": ("s", "d"),
    "U+": ("s", "u"), "U-": ("u", "s"),
    "V+": ("d", "c"), "V-": ("c", "d"),
}

# diagonal superoperator -> eigenvalue on a config
_DIAGONAL = {
    "Q3": lambda c: Fraction(c.alpha - c.beta, 2),
    "Sigma3": lambda c: Fraction(c.gamma - c.delta, 2),
    "M3": lambda c: Fraction(c.alpha - c.delta, 2),
    "N3": lambda c: Fraction(c.gamma - c.beta, 2),
    "U3": lambda c: Fraction(c.alpha - c.gamma, 2),
    "V3": lambda c: Fraction(c.delta - c.beta, 2),
}

_FACTOR_SLOT = {f: k for k, f in enumerate(su4.FACTORS)}


def apply_ladder(x: str, qn: QuantumNumbers, z: int):
    """Action of superoperator x on a basis state.

    Returns (coefficient, target label).  Diagonal operators return the
    eigenvalue with the unchanged label; ladder operators return the count
    of the replaced factor and the shifted label, or (0, None) when the
    state is annihilated.
    """
    cfg = config_from_qn(z, qn)
    if x in _DIAGONAL:
        return _DIAGONAL[x](cfg), qn
    src, dst = _REPLACEMENT[x]
    count = cfg[_FACTOR_SLOT[src]]
    if count == 0:
        return Fraction(0), None
    counts = list(cfg)
    counts[_FACTOR_SLOT[src]] -= 1
    counts[_FACTOR_SLOT[dst]] += 1
    return Fraction(count), qn_from_config(Config(*counts))


def enumerate_basis(z: int) -> tuple:
    """All sector labels, ordered by descending q, then q3, then sigma3.

    Generalized Dicke states (q = Z/2) form the leading contiguous block.
    """
    if z < 1:
        raise ValueError(f"need at least one site, got z={z}")
    return tuple(qn_from_config(Config(n - b, b, z - n - d, d))
                 for n in range(z, -1, -1) for b in range(n + 1) for d in range(z - n + 1))


@dataclass(frozen=True)
class SymmetricBasis:
    """Labels of one sector size in slot order, and the slot of each label."""
    z: int
    states: tuple
    index: dict

    @property
    def dimension(self) -> int:
        return len(self.states)


@lru_cache(maxsize=None)
def basis(z: int) -> SymmetricBasis:
    states = enumerate_basis(z)
    return SymmetricBasis(z=z, states=states, index={qn: i for i, qn in enumerate(states)})


def _arrangements(cfg: Config):
    """Yield the distinct words of a factor-count multiset, lexicographic in
    the factor order u, d, s, c."""
    total = cfg.z

    def rec(counts, prefix):
        if len(prefix) == total:
            yield prefix
            return
        for slot, ch in enumerate(su4.FACTORS):
            if counts[slot]:
                nxt = counts[:slot] + (counts[slot] - 1,) + counts[slot + 1:]
                yield from rec(nxt, prefix + ch)

    yield from rec(tuple(cfg), "")


def state_operator_sum(z: int, qn: QuantumNumbers) -> dict:
    """Word expansion of a basis state: every arrangement, weight 1/M."""
    cfg = config_from_qn(z, qn)
    w = Fraction(1, multiplicity(cfg))
    return {word: w for word in _arrangements(cfg)}


def embed_dense(z: int, qn: QuantumNumbers) -> np.ndarray:
    """Dense 2^Z x 2^Z matrix of a basis state."""
    return SymmetricVector.from_components(z, {qn: 1.0}).to_dense()


def _slot_sums_and_defect(z: int, rho: np.ndarray):
    """Sums of rho over each slot, and the largest entrywise deviation of rho
    from its slot average.  The slots are the S_Z orbits of dense entries, so
    the deviation is 0 exactly when rho is permutation-symmetric."""
    dim = 2 ** z
    if rho.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix for z={z}")
    slots, mult = _dense_layout(z)
    flat = slots.ravel()
    with np.errstate(invalid="ignore"):      # inf entries read as a NaN defect
        sums = (np.bincount(flat, weights=rho.real.ravel(), minlength=len(mult))
                + 1j * np.bincount(flat, weights=rho.imag.ravel(), minlength=len(mult)))
        resid = (sums / mult)[slots]
        resid -= rho
    return sums, float(np.abs(resid, out=resid).real.max())


def permutation_defect(z: int, rho: np.ndarray) -> float:
    """Largest entrywise deviation of rho from invariance under site
    permutations, measured against its average over each orbit."""
    return _slot_sums_and_defect(z, rho)[1]


@dataclass
class SymmetricVector:
    """Coefficient vector over the sector basis, one slot per label in the
    order of `enumerate_basis`: slab by slab by descending n, each slab's
    rows by beta and its columns by delta (see `basis_slot`)."""
    z: int
    coeffs: np.ndarray

    def __post_init__(self):
        dim = sector_dimension(self.z)
        arr = np.asarray(self.coeffs)
        if arr.shape != (dim,):
            raise ValueError(
                f"coefficient vector has shape {arr.shape}, expected ({dim},)")
        self.coeffs = arr

    @classmethod
    def from_components(cls, z: int, components: dict) -> "SymmetricVector":
        """Build from a sparse {label: weight} mapping; labels may be any
        triple coercible to (q, q3, sigma3)."""
        weights = {qnum(*key): val for key, val in components.items()}
        dtype = complex if any(isinstance(v, complex) for v in weights.values()) else float
        arr = np.zeros(sector_dimension(z), dtype=dtype)
        for qn, val in weights.items():
            arr[basis_slot(z, qn)] += val
        return cls(z, arr)

    def coeff(self, label) -> complex:
        return self.coeffs[basis_slot(self.z, label)]

    def trace(self):
        """Sector trace: sum of the leading Z+1 (generalized-Dicke) slots."""
        return self.coeffs[:self.z + 1].sum()

    def to_dense(self) -> np.ndarray:
        """Dense reconstruction: entry (r, c) is coeff / multiplicity of its slot."""
        su4._check_dense_size(self.z)
        slots, mult = _dense_layout(self.z)
        return (self.coeffs / mult).astype(complex)[slots]

    def copy(self) -> "SymmetricVector":
        return SymmetricVector(self.z, self.coeffs.copy())


_SYMMETRY_TOL = 1e-10


def extract_coefficients(z: int, rho: np.ndarray) -> SymmetricVector:
    """Expand a permutation-symmetric density operator over the sector basis.

    Uses the dual pairing: M times the trace against the sigma3-flipped dual
    of a basis state is the sum of rho over that state's own entries.
    """
    sums, defect = _slot_sums_and_defect(z, rho)
    if not defect <= _SYMMETRY_TOL:      # a NaN defect fails this test too
        raise ValueError("matrix has non-finite entries" if math.isnan(defect) else
                         f"matrix is not permutation-symmetric "
                         f"(defect {defect:.3e} > {_SYMMETRY_TOL:.1e})")
    return SymmetricVector(z, sums)
