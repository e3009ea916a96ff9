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
factor; the "3" operators are diagonal.  Labels are exact Fractions, and the
arithmetic on them runs on ints: `config_from_qn` checks the doubled labels
2q, 2q3, 2sigma3 for parity and sign.  Floats appear only in dense
embeddings and coefficient vectors.

Coefficient vectors hold one (n+1) x (m+1) slab (rows beta, columns delta)
per n = alpha + beta = Z - m, by descending n; the generalized Dicke states are
the leading Z+1 slots.  A label's slot is a closed form (`basis_slot`), and
so is its inverse (`_slot_configs`), so `basis(z)` is a view with no table.
Dense entry (r, c) belongs to the configuration with beta = #(r & c),
delta = #(r & ~c), gamma = #(~r & c), so a cached slot map makes `to_dense` a
gather and `extract_coefficients` a bincount.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping, Sequence
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


def _doubled(x):
    """2x as an int, or None when x is not a half-integer.  An int or a
    Fraction is read through its numerator and denominator; anything else is
    coerced with Fraction first, as `qnum` does."""
    if not hasattr(x, "denominator"):
        x = Fraction(x)
    twice, rest = divmod(2 * x.numerator, x.denominator)
    return None if rest else twice


def config_from_qn(z: int, qn: QuantumNumbers) -> Config:
    """Inverse labelling, on the doubled labels 2q, 2q3, 2sigma3 as ints;
    raises ValueError on labels outside the sector."""
    q, q3, sigma3 = _doubled(qn[0]), _doubled(qn[1]), _doubled(qn[2])
    if None not in (q, q3, sigma3):
        sigma = z - q
        counts = (q + q3, q - q3, sigma + sigma3, sigma - sigma3)
        if not any(x % 2 or x < 0 for x in counts):
            return Config(*(x // 2 for x in counts))
    raise ValueError(f"labels {tuple(qn)} are not realizable at z={z}")


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
    a, b, _, d = config_from_qn(z, qn)
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
    slots.flags.writeable = False
    return slots, _slot_pairing(z)[0]


@lru_cache(maxsize=None)
def _slot_pairing(z: int):
    """Each slot's multiplicity C(Z, n) C(n, beta) C(m, delta), m = Z - n, as
    a float (exact while 4^Z < 2^53, Z <= 26; inf from Z = 519), and its
    dual slot (delta -> m - delta within its slab row), the slot of the
    transposed dense entries; O(dimension), with no dense layout."""
    mult = np.empty(sector_dimension(z))
    dual = np.empty(sector_dimension(z), dtype=np.intp)
    for n, sl in _slab_table(z)[1]:
        rows = np.array([math.comb(n, b) for b in range(n + 1)], dtype=float)
        cols = np.array([math.comb(z - n, d) for d in range(z - n + 1)], dtype=float)
        mult[sl] = (float(math.comb(z, n)) * np.outer(rows, cols)).ravel()
        dual[sl] = np.arange(sl.start, sl.stop).reshape(n + 1, -1)[:, ::-1].ravel()
    mult.flags.writeable = dual.flags.writeable = False
    return mult, dual


# ladder superoperator -> (replaced factor, replacement factor)
_REPLACEMENT = {
    "Q+": ("d", "u"), "Q-": ("u", "d"),
    "Sigma+": ("c", "s"), "Sigma-": ("s", "c"),
    "M+": ("c", "u"), "M-": ("u", "c"),
    "N+": ("d", "s"), "N-": ("s", "d"),
    "U+": ("s", "u"), "U-": ("u", "s"),
    "V+": ("d", "c"), "V-": ("c", "d"),
}

# diagonal superoperator -> twice its eigenvalue on a config
_DIAGONAL = {
    "Q3": lambda c: c.alpha - c.beta,
    "Sigma3": lambda c: c.gamma - c.delta,
    "M3": lambda c: c.alpha - c.delta,
    "N3": lambda c: c.gamma - c.beta,
    "U3": lambda c: c.alpha - c.gamma,
    "V3": lambda c: c.delta - c.beta,
}

_FACTOR_SLOT = {f: k for k, f in enumerate(su4.FACTORS)}


def apply_ladder(x: str, qn: QuantumNumbers, z: int):
    """Action of superoperator x on a basis state.

    Returns (coefficient, target label).  Diagonal operators return the
    eigenvalue (an int, or a Fraction when it is a half-integer) with the
    unchanged label; ladder operators return the count of the replaced
    factor and the shifted label, or (0, None) when the state is annihilated.
    """
    cfg = config_from_qn(z, qn)
    if x in _DIAGONAL:
        return su4._half(_DIAGONAL[x](cfg)), qn
    src, dst = _REPLACEMENT[x]
    count = cfg[_FACTOR_SLOT[src]]
    if count == 0:
        return 0, None
    counts = list(cfg)
    counts[_FACTOR_SLOT[src]] -= 1
    counts[_FACTOR_SLOT[dst]] += 1
    return count, qn_from_config(Config(*counts))


def _slot_configs(z: int, slots) -> tuple:
    """Factor counts (alpha, beta, gamma, delta) of each slot in `slots`, the
    inverse of `basis_slot`: the slab n from the slab starts, then
    (beta, delta) = divmod(offset in the slab, m + 1).  This is the one
    definition of the basis order."""
    starts = _slab_table(z)[0]
    k = np.searchsorted(starts, slots, side="right") - 1
    n = z - k
    beta, delta = np.divmod(slots - starts[k], k + 1)
    return n - beta, beta, k - delta, delta


def basis_configs(z: int) -> list:
    """The Config of every slot, in slot order."""
    counts = _slot_configs(z, np.arange(sector_dimension(z)))
    return list(map(Config, *(x.tolist() for x in counts)))


def enumerate_basis(z: int) -> tuple:
    """All sector labels, ordered by descending q, then q3, then sigma3.

    Generalized Dicke states (q = Z/2) form the leading contiguous block.
    """
    return tuple(map(qn_from_config, basis_configs(z)))


@dataclass(frozen=True)
class _SlotLabels(Sequence):
    """The label of every slot in slot order, each computed when read."""
    z: int

    def __len__(self) -> int:
        return sector_dimension(self.z)

    def __getitem__(self, i):
        dim = len(self)
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(dim)))
        i = operator.index(i)
        if not -dim <= i < dim:
            raise IndexError(f"slot {i} outside the z={self.z} sector of dimension {dim}")
        return qn_from_config(Config(*map(int, _slot_configs(self.z, i % dim))))


@dataclass(frozen=True)
class _LabelSlots(Mapping):
    """The slot of every label, from `basis_slot`; KeyError outside the sector."""
    z: int

    def __len__(self) -> int:
        return sector_dimension(self.z)

    def __iter__(self):
        return iter(_SlotLabels(self.z))

    def __getitem__(self, qn) -> int:
        try:
            return basis_slot(self.z, qn)
        except (IndexError, TypeError, ValueError):
            raise KeyError(qn) from None


@dataclass(frozen=True)
class SymmetricBasis:
    """Labels of one sector size in slot order, and the slot of each label:
    views that compute both in closed form, with no table behind them."""
    z: int
    states: Sequence
    index: Mapping

    @property
    def dimension(self) -> int:
        return len(self.states)


@lru_cache(maxsize=None)
def basis(z: int) -> SymmetricBasis:
    sector_dimension(z)      # refuses z < 1
    return SymmetricBasis(z, _SlotLabels(z), _LabelSlots(z))


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


def _real_if_exact(a: np.ndarray) -> np.ndarray:
    """The real part of a when no entry has an imaginary part (a NaN one
    counts as one), else a itself."""
    return a.real if np.iscomplexobj(a) and not a.imag.any() else a


def _dense_matrix(v: "SymmetricVector", cast=_real_if_exact) -> np.ndarray:
    """Dense matrix of v within the oracle limit: entry (r, c) is
    cast(coeff / multiplicity) of its slot, the cast applied per slot."""
    su4._check_dense_size(v.z)
    slots, mult = _dense_layout(v.z)
    return cast(v.coeffs / mult)[slots]


def _slot_sums_and_defect(z: int, rho: np.ndarray):
    """Sums of rho over each slot, and the largest entrywise deviation of rho
    from its slot average.  The slots are the S_Z orbits of dense entries, so
    the deviation is 0 exactly when rho is permutation-symmetric."""
    dim = 2 ** z
    if rho.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix for z={z}")
    slots, mult = _dense_layout(z)
    flat = slots.ravel()
    rho = _real_if_exact(rho)
    with np.errstate(invalid="ignore"):      # inf entries read as a NaN defect
        sums = np.bincount(flat, weights=rho.real.ravel(), minlength=len(mult))
        if np.iscomplexobj(rho):
            sums = sums + 1j * np.bincount(flat, weights=rho.imag.ravel(), minlength=len(mult))
        resid = (sums / mult)[slots]
        resid -= rho
    return sums, float(np.abs(resid, out=resid).real.max())


def permutation_defect(z: int, rho: np.ndarray) -> float:
    """Largest entrywise deviation of rho from invariance under site
    permutations, measured against its average over each orbit."""
    return _slot_sums_and_defect(z, rho)[1]


def hermiticity_defect(v: SymmetricVector) -> float:
    """Largest entry of |rho - rho^dagger| for the dense matrix rho of v, read
    from the slots: entries (r, c) and (c, r) hold a slot and its dual, which
    share a multiplicity.  Equal to the dense value bit for bit, in
    O(dimension); NaN when a coefficient is NaN."""
    mult, dual = _slot_pairing(v.z)
    w = v.coeffs / mult
    with np.errstate(invalid="ignore"):      # inf - inf reads as a NaN defect
        return float(np.abs(w - w[dual].conj()).max())


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
        return _dense_matrix(self, lambda w: w.astype(complex))

    def copy(self) -> "SymmetricVector":
        return SymmetricVector(self.z, self.coeffs.copy())


_SYMMETRY_TOL = 1e-10


def extract_coefficients(z: int, rho: np.ndarray) -> SymmetricVector:
    """Expand a permutation-symmetric density operator over the sector basis.

    Uses the dual pairing: M times the trace against the sigma3-flipped dual
    of a basis state is the sum of rho over that state's own entries.  The
    coefficients are float64 when no entry of rho has an imaginary part, and
    complex otherwise.
    """
    sums, defect = _slot_sums_and_defect(z, rho)
    if not defect <= _SYMMETRY_TOL:      # a NaN defect fails this test too
        raise ValueError("matrix has non-finite entries" if math.isnan(defect) else
                         f"matrix is not permutation-symmetric "
                         f"(defect {defect:.3e} > {_SYMMETRY_TOL:.1e})")
    return SymmetricVector(z, sums)
