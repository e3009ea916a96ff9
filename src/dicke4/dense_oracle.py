"""Brute-force reference dynamics on the full 2^Z Hilbert space.

Everything here is built from explicit Pauli matrices and Kronecker
products, independent of the word algebra and the symmetric-sector ladders,
so it can serve as an oracle for them.  The master equation (B = 1 units,
pumping weight s, dephasing strength ctilde = C/B):

    dP/dt = -(1-s)/2 * sum_i [sp_i sm_i P + P sp_i sm_i - 2 sm_i P sp_i]
            -   s/2   * sum_i [sm_i sp_i P + P sm_i sp_i - 2 sp_i P sm_i]
            - (2*ctilde-1)/4 * sum_i [P - s3_i P s3_i]

Ket ordering: |b_1 ... b_Z> with b=1 before b=0 at each site, so index 0 is
|1...1> and site 1 is the most significant bit.  Dense work is capped by
`oracle_limit` (env DICKE4_ORACLE_LIMIT, default 10).  scipy is imported
inside the functions that use it, so importing this module loads numpy only.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .lindblad_solver import ModelParams, _check_domain
from .su4_algebra import _check_dense_size

if TYPE_CHECKING:
    import scipy.sparse as sp

# single-site matrices in the (|1>, |0>) basis
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]])
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]])
SIGMA_3 = np.array([[1.0, 0.0], [0.0, -1.0]])
PROJ_UP = np.array([[1.0, 0.0], [0.0, 0.0]])
PROJ_DOWN = np.array([[0.0, 0.0], [0.0, 1.0]])

_SITE_MATS = {
    "sp": SIGMA_PLUS, "sm": SIGMA_MINUS, "s3": SIGMA_3,
    "up": PROJ_UP, "dn": PROJ_DOWN,
}


@lru_cache(maxsize=None)
def site_operator(z: int, site: int, name: str) -> sp.csr_matrix:
    """Sparse single-site operator embedded at `site` (1-based, leftmost)."""
    import scipy.sparse as sp
    _check_dense_size(z)
    if not 1 <= site <= z:
        raise ValueError(f"site {site} outside 1..{z}")
    op = sp.identity(1, format="csr")
    for j in range(1, z + 1):
        blk = sp.csr_matrix(_SITE_MATS[name]) if j == site else sp.identity(2, format="csr")
        op = sp.kron(op, blk, format="csr")
    return op


@lru_cache(maxsize=None)
def _dense_site_operator(z: int, site: int, name: str) -> np.ndarray:
    """`site_operator` as a dense array, for right-hand factors."""
    return site_operator(z, site, name).toarray()


# left factor, right factor, prefactor of each superoperator's site term
_SANDWICH = {
    "Q+": ("sp", "sm", 1.0), "Q-": ("sm", "sp", 1.0),
    "Sigma+": ("sp", "sp", 1.0), "Sigma-": ("sm", "sm", 1.0),
    "M+": ("sp", "up", 1.0), "M-": ("sm", "up", 1.0), "M3": ("s3", "up", 0.5),
    "N+": ("sp", "dn", 1.0), "N-": ("sm", "dn", 1.0), "N3": ("s3", "dn", 0.5),
    "U+": ("up", "sm", 1.0), "U-": ("up", "sp", 1.0), "U3": ("up", "s3", 0.5),
    "V+": ("dn", "sm", 1.0), "V-": ("dn", "sp", 1.0), "V3": ("dn", "s3", 0.5),
}


def superoperator_dense(name: str, z: int, rho: np.ndarray) -> np.ndarray:
    """Apply one of the 18 superoperators to a dense matrix, straight from
    the defining single-site sandwiches."""
    _check_dense_size(z)
    out = np.zeros_like(rho, dtype=complex)
    if name in ("Q3", "Sigma3"):
        sign = 1.0 if name == "Q3" else -1.0
        for i in range(1, z + 1):
            s3 = site_operator(z, i, "s3")
            out += 0.25 * (s3 @ rho + sign * (rho @ _dense_site_operator(z, i, "s3")))
        return out
    left, right, pref = _SANDWICH[name]
    for i in range(1, z + 1):
        lmat = site_operator(z, i, left)
        out += pref * (lmat @ rho @ _dense_site_operator(z, i, right))
    return out


def lindblad_apply(z: int, s: float, rho: np.ndarray, ctilde: float = 0.5) -> np.ndarray:
    """Right-hand side of the master equation on a dense matrix (B=1)."""
    _check_dense_size(z)
    out = np.zeros_like(rho, dtype=complex)
    for i in range(1, z + 1):
        # up = sp*sm, dn = sm*sp
        spi, smi, s3i, up, dn = (site_operator(z, i, k) for k in ("sp", "sm", "s3", "up", "dn"))
        spd, smd, s3d, upd, dnd = (_dense_site_operator(z, i, k)
                                   for k in ("sp", "sm", "s3", "up", "dn"))
        out -= 0.5 * (1.0 - s) * (up @ rho + rho @ upd - 2.0 * (smi @ rho @ spd))
        out -= 0.5 * s * (dn @ rho + rho @ dnd - 2.0 * (spi @ rho @ smd))
        if ctilde != 0.5:
            out -= (2.0 * ctilde - 1.0) / 4.0 * (rho - s3i @ rho @ s3d)
    return out


def _kron_lr(a: sp.spmatrix, b: sp.spmatrix) -> sp.csr_matrix:
    # row-major vec: vec(A P B) = (A kron B^T) vec(P)
    import scipy.sparse as sp
    return sp.kron(a, b.T, format="csr")


@lru_cache(maxsize=None)
def liouvillian_sparse(z: int, s: float, ctilde: float = 0.5) -> sp.csr_matrix:
    """Master-equation generator on row-major vectorized 2^Z x 2^Z matrices."""
    import scipy.sparse as sp
    _check_dense_size(z)
    dim = 2 ** z
    eye = sp.identity(dim, format="csr")
    lv = sp.csr_matrix((dim * dim, dim * dim))
    for i in range(1, z + 1):
        spi, smi, s3i, up, dn = (site_operator(z, i, k) for k in ("sp", "sm", "s3", "up", "dn"))
        lv = lv - 0.5 * (1.0 - s) * (
            _kron_lr(up, eye) + _kron_lr(eye, up) - 2.0 * _kron_lr(smi, spi))
        lv = lv - 0.5 * s * (
            _kron_lr(dn, eye) + _kron_lr(eye, dn) - 2.0 * _kron_lr(spi, smi))
        if ctilde != 0.5:
            lv = lv - (2.0 * ctilde - 1.0) / 4.0 * (
                _kron_lr(eye, eye) - _kron_lr(s3i, s3i))
    return lv.tocsr()


def dense_propagate(z: int, s: float, rho0: np.ndarray, tau: float,
                    ctilde: float = 0.5) -> np.ndarray:
    """Evolve a dense matrix to time tau (B=1 units).  The arguments are
    validated as the sector solver's are (`ModelParams`, tau finite and
    >= 0); the dynamics are built from Pauli matrices alone."""
    from scipy.sparse.linalg import expm_multiply
    ModelParams(z=z, s=s, ctilde=ctilde)
    _check_dense_size(z)
    dim = 2 ** z
    if rho0.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix for z={z}")
    _check_domain(tau)
    if tau == 0.0:
        return rho0.astype(complex, copy=True)
    lv = liouvillian_sparse(z, float(s), float(ctilde))
    return expm_multiply(lv * tau, rho0.astype(complex).reshape(-1)).reshape(dim, dim)


def dicke_state_dense(z: int, s3) -> np.ndarray:
    """Dense ket of the Dicke state |Z/2, s3>: uniform superposition over
    all kets with Z/2 + s3 up spins."""
    _check_dense_size(z)
    val = Fraction(s3) + Fraction(z, 2)
    if val.denominator != 1 or not 0 <= val <= z:
        raise ValueError(f"s3={s3} is not a spin projection of z={z} sites")
    n_up = int(val)
    dim = 2 ** z
    ket = np.zeros(dim, dtype=complex)
    norm = 1.0 / math.sqrt(math.comb(z, n_up))
    for idx in range(dim):
        if z - bin(idx).count("1") == n_up:   # bit 0 means |1>
            ket[idx] = norm
    return ket


def collective_s3_diag(z: int) -> np.ndarray:
    """Diagonal of S3 = (1/2) sum_i s3_i in the ket ordering."""
    _check_dense_size(z)
    dim = 2 ** z
    return np.array([z - 2 * bin(idx).count("1") for idx in range(dim)]) / 2.0
