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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.linalg import eigvalsh_tridiagonal

from .symmetric_sector import (SymmetricVector, basis, config_from_qn, qnum,
                               sector_dimension)


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
        if not isinstance(self.z, int) or self.z < 1:
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
    (q -+ q3) P_{q,q3 +- 1,s3}.  Entries are the exact integer counts.
    """
    b = basis(z)
    rows_p, cols_p, vals_p = [], [], []
    rows_m, cols_m, vals_m = [], [], []
    for j, qn in enumerate(b.states):
        q, q3, s3 = qn
        up = q - q3          # = beta, coefficient of Q+
        if up:
            rows_p.append(b.index[qnum(q, q3 + 1, s3)])
            cols_p.append(j)
            vals_p.append(float(up))
        down = q + q3        # = alpha, coefficient of Q-
        if down:
            rows_m.append(b.index[qnum(q, q3 - 1, s3)])
            cols_m.append(j)
            vals_m.append(float(down))
    dim = b.dimension
    qp = sp.csr_matrix((vals_p, (rows_p, cols_p)), shape=(dim, dim))
    qm = sp.csr_matrix((vals_m, (rows_m, cols_m)), shape=(dim, dim))
    return qp, qm


def liouvillian_matrix(p: ModelParams) -> sp.csr_matrix:
    """Sector matrix of the full generator acting on coefficient vectors."""
    b = basis(p.z)
    qp, qm = ladder_matrices(p.z)
    diag = (-0.5 * p.z
            - (1.0 - 2.0 * p.s) * b.q3_values
            + (1.0 - 2.0 * p.ctilde) * (0.5 * p.z - b.q_values))
    return (sp.diags(diag) + (1.0 - p.s) * qm + p.s * qp).tocsr()


def propagate_bch(v: SymmetricVector, p: ModelParams, tau: float) -> SymmetricVector:
    """Exact propagation over time tau: each slab is multiplied by the
    symmetric power M_n of the one-site map and by e^(-ctilde m tau)."""
    if v.z != p.z:
        raise ValueError(f"state has z={v.z}, params have z={p.z}")
    f = _check_domain(tau)
    decay, pump = (1.0 - p.s) * f, p.s * f
    w = v.coeffs
    out = np.empty(w.shape, dtype=np.result_type(w.dtype, float))
    mat = np.ones((1, 1))
    end = len(w)                 # slabs are stored by descending n
    for n in range(p.z + 1):
        if n:
            # Append one site: it holds u in columns 0..n-1 and d in the
            # all-d column n.
            grown = np.zeros((n + 1, n + 1))
            grown[:-1, :-1] = (1.0 - decay) * mat
            grown[1:, :-1] += decay * mat
            grown[:-1, -1] = pump * mat[:, -1]
            grown[1:, -1] += (1.0 - pump) * mat[:, -1]
            mat = grown
        m = p.z - n
        start = end - (n + 1) * (m + 1)
        slab = w[start:end].reshape(n + 1, m + 1)
        out[start:end] = (mat @ slab).ravel() * math.exp(-p.ctilde * m * tau)
        end = start
    return SymmetricVector(p.z, out)


def evolve(v: SymmetricVector, p: ModelParams, tau: float) -> SymmetricVector:
    """Full propagation: damping, pumping and dephasing."""
    return propagate_bch(v, p, tau)


def propagate_decay_closed_form(qn, z: int, tau: float) -> SymmetricVector:
    """Pure-decay (s = 0) evolution of one basis state, in closed form:

    P(tau) = e^(-Z tau/2) * sum_k C(q+q3, k) f^k (1-f)^(q3-k) P_{q,q3-k,s3}
    """
    qn = qnum(*qn)
    config_from_qn(z, qn)   # validates the label
    f = -math.expm1(-tau)
    n_down = int(qn.q + qn.q3)
    comps = {}
    for k in range(n_down + 1):
        weight = (math.comb(n_down, k) * f ** k
                  * math.exp(-tau * float(qn.q3 - k))
                  * math.exp(-0.5 * z * tau))
        comps[qnum(qn.q, qn.q3 - k, qn.sigma3)] = weight
    return SymmetricVector.from_components(z, comps)


def dicke_block_matrix(p: ModelParams) -> np.ndarray:
    """Generator on the leading q = Z/2 block (Z+1 states), in closed form.

    Row and column k = Z/2 - q3 count the d factors: Q+ takes k to k-1 with
    weight s k, Q- takes k to k+1 with weight (1-s)(Z-k).
    """
    k = np.arange(p.z + 1.0)
    return (np.diag(-0.5 * p.z - (1.0 - 2.0 * p.s) * (0.5 * p.z - k))
            + np.diag(p.s * k[1:], 1) + np.diag((1.0 - p.s) * (p.z - k[:-1]), -1))


def spectrum(p: ModelParams):
    """Eigenvalues of the q = Z/2 block (descending) and the stationary state.

    The eigenvalues are 0, -1, ..., -Z.  The block is tridiagonal with
    non-negative off-diagonals, so a diagonal similarity makes it symmetric
    with off-diagonal sqrt(upper * lower) and the eigenvalues come out real.
    The stationary state solves the block equations with the last one
    replaced by unit trace; it carries the binomial weights
    C(Z, Z/2+q3) s^(Z/2+q3) (1-s)^(Z/2-q3).
    """
    block = dicke_block_matrix(p)
    vals = eigvalsh_tridiagonal(np.diag(block),
                                np.sqrt(np.diag(block, 1) * np.diag(block, -1)))
    block[-1] = 1.0          # trace row: the block states all have unit trace
    unit = np.zeros(p.z + 1)
    unit[-1] = 1.0
    full = np.zeros(sector_dimension(p.z))
    full[:p.z + 1] = np.linalg.solve(block, unit)
    return vals[::-1], SymmetricVector(p.z, full)


def block_eigenmodes(p: ModelParams):
    """All (eigenvalue, mode) pairs of the q = Z/2 block, eigenvalues
    descending.  The stationary mode is trace-normalized; decaying modes are
    traceless and normalized to max-abs 1 with their first nonzero
    coefficient positive."""
    block = dicke_block_matrix(p)
    vals, vecs = np.linalg.eig(block)
    order = np.argsort(-vals.real)
    dim_full = basis(p.z).dimension
    modes = []
    for rank, j in enumerate(order):
        vec = vecs[:, j].real
        if rank == 0:
            vec = vec / vec.sum()
        else:
            vec = vec / np.abs(vec).max()
            lead = vec[np.nonzero(np.abs(vec) > 1e-12)[0][0]]
            if lead < 0:
                vec = -vec
        full = np.zeros(dim_full)
        full[:p.z + 1] = vec
        modes.append((float(vals[j].real), SymmetricVector(p.z, full)))
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
    """Numerically integrate the collective (spin-Z/2 truncated) model.

    The density matrix lives on the (Z+1)^2 Dicke basis |Z/2,M><Z/2,M'|,
    rows/columns indexed by k with M = Z/2 - k.  `initial` is either an
    (M, M') label pair or a (Z+1)x(Z+1) matrix.  Returns the propagated
    matrix at each requested tau (stacked when `taus` is a sequence).

    Integrates dP/dtau = -(1-s)/2 [S+S- P + P S+S- - 2 S- P S+]
                         -  s/2   [S-S+ P + P S-S+ - 2 S+ P S-]
    with RK45 at rtol 1e-10.
    """
    if z < 1:
        raise ValueError(f"need at least one site, got z={z}")
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

    def rhs(_t, y):
        rho = y.reshape(n, n)
        out = loss * rho
        out[1:, 1:] += gain_down[:-1, :-1] * rho[:-1, :-1]
        out[:-1, :-1] += gain_up[1:, 1:] * rho[1:, 1:]
        return out.reshape(-1)

    scalar = np.isscalar(taus)
    t_eval = np.atleast_1d(np.asarray(taus, dtype=float))
    if np.any(t_eval < 0):
        raise ValueError("tau values must be >= 0")
    order = np.argsort(t_eval)
    t_sorted = t_eval[order]
    out = np.empty((len(t_eval), n, n), dtype=complex)
    nonzero = t_sorted > 0
    if nonzero.any():
        sol = solve_ivp(rhs, (0.0, float(t_sorted[-1])), rho0.reshape(-1),
                        method="RK45", rtol=1e-10, atol=1e-12,
                        t_eval=t_sorted[nonzero])
        if not sol.success:
            raise RuntimeError(f"collective-model integration failed: {sol.message}")
        out[order[nonzero]] = sol.y.T.reshape(-1, n, n)
    out[order[~nonzero]] = rho0
    return out[0] if scalar else out
