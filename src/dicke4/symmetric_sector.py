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


def apply_qtilde(qn: QuantumNumbers) -> Fraction:
    """Eigenvalue of (Z + 4 M3 - 2 Q3 - 2 Sigma3)/4 on a basis state: q."""
    return Fraction(qn[0])


def sector_dimension(z: int) -> int:
    if z < 1:
        raise ValueError(f"need at least one site, got z={z}")
    return (z + 1) * (z + 2) * (z + 3) // 6


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
    labels = []
    for a in range(z + 1):
        for b in range(z + 1 - a):
            for g in range(z + 1 - a - b):
                labels.append(qn_from_config(Config(a, b, g, z - a - b - g)))
    labels.sort(key=lambda qn: (-qn.q, -qn.q3, -qn.sigma3))
    return tuple(labels)


@dataclass(frozen=True)
class SymmetricBasis:
    """Immutable lookup tables for one sector size."""
    z: int
    states: tuple
    index: dict
    configs: tuple
    q_values: np.ndarray       # float q per basis slot
    q3_values: np.ndarray      # float q3 per basis slot
    trace_values: np.ndarray   # 1.0 on generalized Dicke states, else 0.0

    @property
    def dimension(self) -> int:
        return len(self.states)


@lru_cache(maxsize=None)
def basis(z: int) -> SymmetricBasis:
    states = enumerate_basis(z)
    configs = tuple(config_from_qn(z, qn) for qn in states)
    q = np.array([float(qn.q) for qn in states])
    q3 = np.array([float(qn.q3) for qn in states])
    tr = np.array([1.0 if (c.gamma == 0 and c.delta == 0) else 0.0 for c in configs])
    for arr in (q, q3, tr):
        arr.flags.writeable = False
    return SymmetricBasis(
        z=z, states=states, index={qn: i for i, qn in enumerate(states)},
        configs=configs, q_values=q, q3_values=q3, trace_values=tr)


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
    return su4.to_dense(state_operator_sum(z, qn), z)


def permutation_defect(z: int, rho: np.ndarray) -> float:
    """Largest entrywise deviation of rho from invariance under adjacent
    site swaps (which generate all permutations)."""
    dim = 2 ** z
    if rho.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix for z={z}")
    idx = np.arange(dim)
    worst = 0.0
    for site in range(1, z):
        hi, lo = z - site, z - site - 1   # bit positions of sites site, site+1
        b_hi = (idx >> hi) & 1
        b_lo = (idx >> lo) & 1
        diff = b_hi ^ b_lo
        perm = idx ^ ((diff << hi) | (diff << lo))
        worst = max(worst, np.abs(rho - rho[np.ix_(perm, perm)]).max())
    return float(worst)


@dataclass
class SymmetricVector:
    """Coefficient vector over the sector basis of `basis(z)`."""
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
        b = basis(z)
        weights = {qnum(*key): val for key, val in components.items()}
        dtype = complex if any(isinstance(v, complex) for v in weights.values()) else float
        arr = np.zeros(b.dimension, dtype=dtype)
        for qn, val in weights.items():
            if qn not in b.index:
                raise ValueError(f"label {tuple(qn)} is not in the z={z} sector")
            arr[b.index[qn]] += val
        return cls(z, arr)

    def coeff(self, label) -> complex:
        b = basis(self.z)
        return self.coeffs[b.index[qnum(*label)]]

    def trace(self):
        """Sector trace: sum of generalized-Dicke coefficients."""
        return (self.coeffs * basis(self.z).trace_values).sum()

    def to_dense(self) -> np.ndarray:
        """Dense density-operator reconstruction (oracle-limit guarded)."""
        b = basis(self.z)
        dim = 2 ** self.z
        if self.z > su4.oracle_limit():
            raise ValueError(
                f"z={self.z} exceeds the dense-space limit {su4.oracle_limit()} "
                f"(override with {su4.ORACLE_LIMIT_ENV})")
        out = np.zeros((dim, dim), dtype=complex)
        for qn, cfg, w in zip(b.states, b.configs, self.coeffs):
            if w == 0:
                continue
            scale = w / multiplicity(cfg)
            for wrd in _arrangements(cfg):
                r, c = su4.word_entry(wrd)
                out[r, c] += scale
        return out

    def copy(self) -> "SymmetricVector":
        return SymmetricVector(self.z, self.coeffs.copy())


def extract_coefficients(z: int, rho: np.ndarray, tol: float = 1e-10) -> SymmetricVector:
    """Expand a permutation-symmetric density operator over the sector basis.

    Uses the dual pairing: the coefficient of a basis state equals M times
    the trace against its sigma3-flipped dual, which reduces to summing
    single matrix entries over the dual arrangements.
    """
    defect = permutation_defect(z, rho)
    if defect > tol:
        raise ValueError(
            f"matrix is not permutation-symmetric (defect {defect:.3e} > {tol:.1e})")
    b = basis(z)
    out = np.zeros(b.dimension, dtype=complex)
    for i, qn in enumerate(b.states):
        dual_cfg = config_from_qn(z, dual_qn(qn))
        total = 0.0 + 0.0j
        for wrd in _arrangements(dual_cfg):
            r, c = su4.word_entry(wrd)
            total += rho[c, r]
        out[i] = total
    return SymmetricVector(z, out)
