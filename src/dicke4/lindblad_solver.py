"""Symmetric-sector Lindblad dynamics of Z driven-damped qubits (B = 1 units).

In the sector basis the master equation reads

    dP/dtau = [ -Z/2 + (1-s) Q- - (1-2s) Q3 + s Q+ ] P
              + (1 - 2 ctilde) (Z/2 - Qtilde) P

with tau = B t, pumping weight s in [0, 1] and ctilde = C/B (ctilde = 1/2
switches the pure-dephasing term off).  Q+- only move q3 within a (q, sigma3)
block and everything else is diagonal, so the generator acts slab by slab.
Slab q is the contiguous (n+1) x (m+1) array of coefficients with n = 2q and
m = Z - n, rows indexed by the number of d factors (q3 descending) and
columns by sigma3.  On it the generator is that of n independent sites
carrying the populations u, d, plus the constant -ctilde m of the m
coherence factors, so propagation is exact:

    slab(tau) = M_n(tau) @ slab(0) * e^(-ctilde m tau)

M_n[j, i] is the probability that i d factors become j when every site
follows the one-site column-stochastic map (columns u, d; f = 1 - e^(-tau))

    G(tau) = [[1 - (1-s) f,   s f    ],
              [(1-s) f,       1 - s f]],

i.e. M_n is the n-fold symmetric power of G, built by appending one site at
a time.  Every entry of every factor lies in [0, 1], so nothing overflows at
any Z or tau.  The paper's factorized form e^(-Z tau/2) exp(a Q+) exp(b Q3)
exp(c Q-) is an LDU factorization of the same map.

`trajectory` walks a tau grid by exact semigroup steps,
M_n(a + b) = M_n(b) M_n(a).  It reads the whole grid and checks every step
length first, then grows one chain for all distinct lengths at once (L of
them stacked on a trailing axis, L (n+1)^2 floats at slab n), and each step
multiplies only the slabs that are nonzero at the start, since a slab that
starts at zero stays zero.  A Dicke start has one such slab.  There is no
truncation error; rounding drifts by about one ulp per step.
`propagate_bch` and `evolve` are its one-step case, with 2-D maps.  They
need numpy only; the oracles and the collective model import scipy when
called.

The slot layout is `symmetric_sector`'s: the oracles read counts from its
inverse map `_slot_configs` and targets from its forward map `_slot`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .symmetric_sector import (SymmetricVector, _slab_table, _slot, _slot_configs,
                               config_from_qn, qnum, sector_dimension)

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass(frozen=True)
class ModelParams:
    """Model configuration: site count, pumping weight, dephasing strength.

    ctilde < 1/2 is accepted, but there the generator is not completely
    positive: trajectories keep unit trace yet can leave the physical
    states, so the entropy read-out can fail on a negative eigenvalue.
    """
    z: int
    s: float
    ctilde: float = 0.5

    def __post_init__(self):
        if not isinstance(self.z, numbers.Integral) or self.z < 1:
            raise ValueError(f"need at least one site, got z={self.z}")
        if not 0.0 <= self.s <= 1.0:
            raise ValueError(f"pumping weight s={self.s} outside [0, 1]")
        if not (math.isfinite(self.ctilde) and self.ctilde >= 0.0):
            raise ValueError(f"dephasing ratio ctilde={self.ctilde} must be >= 0")


def _check_domain(tau: float) -> float:
    if not (math.isfinite(tau) and tau >= 0.0):
        raise ValueError(f"tau={tau} must be finite and >= 0")
    return -math.expm1(-tau)


@lru_cache(maxsize=None)
def ladder_matrices(z: int):
    """Sparse matrices of Q+ and Q- on the sector coefficient vector.

    Column j holds the image of basis state j: Q+- P_{q,q3,s3} =
    (q -+ q3) P_{q,q3 +- 1,s3}.  On slab n, with rows beta = q - q3 and one
    column per delta, Q+ sends row beta to beta - 1 with weight beta and Q-
    sends it to beta + 1 with weight n - beta = q + q3: a tridiagonal in beta
    times the identity in delta.  Entries are the exact integer counts: Q-
    takes each slot with a u factor one row down (`_slot` at beta + 1) with
    weight alpha, and Q+ takes it back up with weight beta + 1.
    """
    import scipy.sparse as sp
    dim = sector_dimension(z)
    slot = np.arange(dim)
    counts = _slot_configs(z, slot)
    moves = counts[0] > 0               # Q- moves every slot with a u factor
    up = slot[moves]
    alpha, beta, _, delta = (x[moves] for x in counts)
    down = _slot(z, alpha + beta, beta + 1, delta)
    return (sp.csr_matrix(((beta + 1).astype(float), (up, down)), shape=(dim, dim)),
            sp.csr_matrix((alpha.astype(float), (down, up)), shape=(dim, dim)))


def liouvillian_matrix(p: ModelParams) -> sp.csr_matrix:
    """Sector matrix of the full generator acting on coefficient vectors.

    The diagonal reads q = n/2 and q3 = n/2 - beta off each slot's slab n
    and row beta; the off-diagonal is (1-s) Q- + s Q+ from `ladder_matrices`.
    """
    import scipy.sparse as sp
    alpha, beta, _, _ = _slot_configs(p.z, np.arange(sector_dimension(p.z)))
    q = 0.5 * (alpha + beta)
    qp, qm = ladder_matrices(p.z)
    diag = (-0.5 * p.z
            - (1.0 - 2.0 * p.s) * (q - beta)
            + (1.0 - 2.0 * p.ctilde) * (0.5 * p.z - q))
    return (sp.diags(diag) + (1.0 - p.s) * qm + p.s * qp).tocsr()


def _slab_maps(p: ModelParams, lengths, live) -> dict:
    """{(k, n): (M_n(tau), e^(-ctilde m tau))} for tau = lengths[k] and the
    slab sizes n in `live`, each M_n contiguous.  One chain M_0, M_1, ... is
    grown a site at a time up to the largest n, with the lengths on a
    trailing axis; a single length keeps 2-D arrays."""
    f = [_check_domain(tau) for tau in lengths]
    tail = (len(f),) if len(f) > 1 else ()
    f = np.array(f) if tail else f[0]
    decay, pump = (1.0 - p.s) * f, p.s * f
    maps = {}
    mat = np.ones((1, 1) + tail)
    for n in range(max(live, default=-1) + 1):
        if n:
            # Append one site: it holds u in columns 0..n-1 and d in the
            # all-d column n.  What stays is mat minus what moves: a rounded
            # 1 - decay would shift every column sum the same way, and a
            # trajectory reuses one map at every step, so the shift would
            # add up in the trace.
            grown = np.zeros((n + 1, n + 1) + tail)
            moved = decay * mat
            grown[:-1, :-1] = mat - moved
            grown[1:, :-1] += moved
            raised = pump * mat[:, -1]
            grown[:-1, -1] = raised
            grown[1:, -1] += mat[:, -1] - raised
            mat = grown
        if n in live:
            stack = np.moveaxis(mat, -1, 0).copy() if tail else [mat]
            for k, tau in enumerate(lengths):
                # a zero-length step is exactly 1.0: once ctilde m overflows,
                # -inf * 0.0 would be NaN
                coherence = math.exp(-p.ctilde * (p.z - n) * tau) if tau else 1.0
                maps[k, n] = stack[k], coherence
    return maps


def trajectory(v: SymmetricVector, p: ModelParams, taus):
    """Yield the exact state at each tau of `taus`, in the order given.

    Each state is the previous one carried over tau_k - tau_(k-1) by the
    semigroup law M_n(a + b) = M_n(b) M_n(a); when tau decreases the walk
    starts again from `v`.  `taus` is read in full before the first state:
    every step length is worked out and checked first, so a tau that is
    negative or not finite raises ValueError before any state is yielded.
    The slab maps of all distinct step lengths are then built in one chain,
    and every step only multiplies the slabs that are nonzero in `v`; the
    others stay exactly zero.

    The chain holds L (n+1)^2 floats at slab n for L distinct lengths, 3.5 MB
    at Z = 200 with the 11 lengths of a 200-point `np.linspace` grid.  The
    kept maps hold L sum (n+1)^2 floats over the live slabs: L (Z+1)^2 for a
    Dicke start, about 0.6 L MB at Z = 60 and 22 L MB at Z = 200 for a full
    vector.  Rounding drifts by about one ulp per step.
    """
    if v.z != p.z:
        raise ValueError(f"state has z={v.z}, params have z={p.z}")
    w0 = v.coeffs.astype(np.result_type(v.coeffs.dtype, float), copy=False)
    starts, table = _slab_table(p.z)
    slabs = [table[k] for k in np.logical_or.reduceat(w0 != 0, starts).nonzero()[0]]
    walk, index, prev = [], {}, 0.0
    for tau in map(float, taus):
        restart = tau < prev
        step = tau - (0.0 if restart else prev)
        walk.append((restart, index.setdefault(step, len(index))))
        prev = tau
    if not walk:
        return
    maps = _slab_maps(p, list(index), {n for n, _ in slabs})
    w = w0
    for restart, k in walk:
        # np.zeros is calloc'd: the pages of slabs that stay zero are never touched
        last, w = w0 if restart else w, np.zeros(len(w0), w0.dtype)
        for n, sl in slabs:
            mat, coherence = maps[k, n]
            w[sl] = (mat @ last[sl].reshape(n + 1, -1)).ravel() * coherence
        yield SymmetricVector(p.z, w)


def propagate_bch(v: SymmetricVector, p: ModelParams, tau: float) -> SymmetricVector:
    """Exact propagation over time tau: each slab is multiplied by the
    symmetric power M_n of the one-site map and by e^(-ctilde m tau)."""
    return next(trajectory(v, p, (tau,)))


def evolve(v: SymmetricVector, p: ModelParams, tau: float) -> SymmetricVector:
    """Full propagation: damping, pumping and dephasing."""
    return propagate_bch(v, p, tau)


def propagate_decay_closed_form(qn, z: int, tau: float) -> SymmetricVector:
    """Pure-decay (s = 0) evolution of one basis state, in closed form:

    P(tau) = e^(-Z tau/2) * sum_k C(q+q3, k) f^k (1-f)^(q3-k) P_{q,q3-k,s3}
    """
    qn = qnum(*qn)
    config_from_qn(z, qn)   # validates the label
    f = _check_domain(tau)
    n_down = int(qn.q + qn.q3)
    comps = {}
    for k in range(n_down + 1):
        weight = (math.comb(n_down, k) * f ** k
                  * math.exp(-tau * float(Fraction(z, 2) + qn.q3 - k)))
        comps[qnum(qn.q, qn.q3 - k, qn.sigma3)] = weight
    return SymmetricVector.from_components(z, comps)


def spectrum(p: ModelParams):
    """Eigenvalues of the q = Z/2 block (descending) and the stationary state,
    in closed form.

    The eigenvalues are exactly 0, -1, ..., -Z (see `block_eigenmodes`).
    The stationary state carries the binomial weights
    C(Z, j) s^(Z-j) (1-s)^j, j = Z/2 - q3 the number of d factors.  With
    s = a/b exactly, weight j is the integer C(Z, j) a^(Z-j) (b-a)^j over
    b^Z, rounded once: every weight is correctly rounded and >= 0 at any Z
    (0.0 only below the smallest float).  Weights built in logs would lose
    about 5e-13 relative at Z = 400, to the rounding of log C(Z, j).
    """
    a, b = Fraction(p.s).as_integer_ratio()
    up, down = [1], [1]
    for _ in range(p.z):
        up.append(up[-1] * a)
        down.append(down[-1] * (b - a))
    total = b ** p.z
    full = np.zeros(sector_dimension(p.z))
    full[:p.z + 1] = [math.comb(p.z, j) * up[p.z - j] * down[j] / total
                      for j in range(p.z + 1)]
    return np.arange(0.0, -p.z - 1.0, -1.0), SymmetricVector(p.z, full)


def block_eigenmodes(p: ModelParams):
    """All (eigenvalue, mode) pairs of the q = Z/2 block, eigenvalues
    descending, in closed form.

    Mode k has eigenvalue exactly -k and coefficients [x^j] (s + (1-s) x)^(Z-k)
    (1-x)^k (j = number of d factors): the symmetrized product of Z-k
    stationary one-site modes (s, 1-s) and k decaying ones (1, -1), taken in
    exact integers because the alternating terms cancel at large Z.  The
    stationary mode is trace-normalized; decaying modes are traceless and
    normalized to max-abs 1 with their first nonzero coefficient positive."""
    s = Fraction(p.s)
    stationary = [np.ones(1, dtype=object)]
    for _ in range(p.z):
        stationary.append(np.convolve(
            stationary[-1], np.array([s.numerator, s.denominator - s.numerator], dtype=object)))
    decaying = np.ones(1, dtype=object)
    modes = []
    for k in range(p.z + 1):
        exact = np.convolve(stationary[p.z - k], decaying)
        decaying = np.convolve(decaying, np.array([1, -1], dtype=object))
        scale = sum(exact) if k == 0 else max(abs(c) for c in exact)
        vec = np.array([c / scale for c in exact])
        if k and vec[np.nonzero(np.abs(vec) > 1e-12)[0][0]] < 0:
            vec = -vec
        full = np.zeros(sector_dimension(p.z))
        full[:p.z + 1] = vec
        modes.append((float(-k), SymmetricVector(p.z, full)))
    return modes


def collective_ladder_weights(z: int):
    """lambda-(M) = (S+M)(S-M+1) and lambda+(M) = (S-M)(S+M+1) for the
    spin-S = Z/2 multiplet, indexed by k with M = Z/2 - k (descending)."""
    s_tot = 0.5 * z
    m = s_tot - np.arange(z + 1)
    lam_minus = (s_tot + m) * (s_tot - m + 1.0)
    lam_plus = (s_tot - m) * (s_tot + m + 1.0)
    return lam_minus, lam_plus


def truncated_dicke_propagate(z: int, s: float, initial, taus):
    """Exact propagation of the collective (spin-Z/2 truncated) model.

    The density matrix lives on the (Z+1)^2 Dicke basis |Z/2,M><Z/2,M'|,
    rows/columns indexed by k with M = Z/2 - k.  `initial` is either an
    (M, M') label pair or a (Z+1)x(Z+1) matrix.  Returns the propagated
    matrix at each requested tau (stacked when `taus` is a sequence).

    dP/dtau = -(1-s)/2 [S+S- P + P S+S- - 2 S- P S+]
              -  s/2   [S-S+ P + P S-S+ - 2 S+ P S-]
    moves k and k' together, so each diagonal d = k' - k of P is an
    independent band with a tridiagonal generator.  Bands that start at
    zero stay zero; the others step along the sorted taus by the exact
    exponential of each distinct step length.
    """
    from scipy.linalg import expm
    ModelParams(z=z, s=s)   # validates z and s
    n = z + 1
    if isinstance(initial, np.ndarray):
        if initial.shape != (n, n):
            raise ValueError(f"expected a {n}x{n} Dicke-basis matrix")
        rho0 = initial.astype(complex)
    else:
        m, mp = (Fraction(x) for x in initial)
        ks = [Fraction(z, 2) - m, Fraction(z, 2) - mp]
        if any(k.denominator != 1 or not 0 <= k <= z for k in ks):
            raise ValueError(f"labels {initial} outside the spin-{z}/2 multiplet")
        rho0 = np.zeros((n, n), dtype=complex)
        rho0[int(ks[0]), int(ks[1])] = 1.0

    lam_minus, lam_plus = collective_ladder_weights(z)
    loss = -0.5 * ((1.0 - s) * np.add.outer(lam_minus, lam_minus)
                   + s * np.add.outer(lam_plus, lam_plus))
    gain_down = (1.0 - s) * np.sqrt(np.outer(lam_minus, lam_minus))
    gain_up = s * np.sqrt(np.outer(lam_plus, lam_plus))

    t_eval = np.atleast_1d(np.asarray(taus, dtype=float))
    if not np.all(np.isfinite(t_eval) & (t_eval >= 0)):
        raise ValueError("tau values must be finite and >= 0")
    order = np.argsort(t_eval)
    lengths, step = np.unique(np.diff(t_eval[order], prepend=0.0),
                              return_inverse=True)
    out = np.zeros((len(t_eval), n, n), dtype=complex)
    for d in range(-z, n):          # band d holds the entries P[k, k + d]
        band = np.diagonal(rho0, d)
        if not band.any():
            continue
        gen = (np.diag(np.diagonal(loss, d)) + np.diag(np.diagonal(gain_down, d)[:-1], -1)
               + np.diag(np.diagonal(gain_up, d)[1:], 1))
        props = expm(lengths[:, None, None] * gen)
        states = np.empty((len(t_eval), len(band)), dtype=complex)
        for j, i in enumerate(step):
            states[j] = band = props[i] @ band
        out[(order[:, None], *np.nonzero(np.eye(n, k=d)))] = states
    return out[0] if np.isscalar(taus) else out
