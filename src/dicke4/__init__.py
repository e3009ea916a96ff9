"""Exact symmetric-sector solver for the driven-damped Lindblad dynamics of
Z identical qubits.

The permutation-symmetric operator sector has dimension
(Z+1)(Z+2)(Z+3)/6 instead of 4^Z.  Damping, pumping and dephasing act site by
site, so on each slab of fixed q the exact propagator is the symmetric power
of one 2x2 column-stochastic map times a scalar coherence decay: propagation
is exact, fast and free of overflow at any Z and tau.  A brute-force Pauli-matrix oracle provides independent
ground truth at small Z.
"""

from .lindblad_solver import (ModelParams, block_eigenmodes, evolve,
                              liouvillian_matrix, propagate_bch,
                              propagate_decay_closed_form, spectrum,
                              trajectory, truncated_dicke_propagate)
from .observables import (atomic_inversion, bell_initial, bell_weights_reference,
                          ghz_initial, ghz_weights_reference, matrix_entropy,
                          von_neumann_entropy)
from .symmetric_sector import (Config, QuantumNumbers, SymmetricBasis,
                               SymmetricVector, basis, config_from_qn,
                               embed_dense, enumerate_basis,
                               extract_coefficients, multiplicity,
                               qn_from_config, qnum, sector_dimension)
from .verification import CheckResult, run_all

__all__ = [
    "CheckResult", "Config", "ModelParams", "QuantumNumbers", "SymmetricBasis",
    "SymmetricVector", "atomic_inversion", "basis", "bell_initial",
    "bell_weights_reference", "block_eigenmodes", "config_from_qn", "embed_dense",
    "enumerate_basis", "extract_coefficients", "evolve", "ghz_initial",
    "ghz_weights_reference", "liouvillian_matrix", "matrix_entropy", "multiplicity",
    "propagate_bch", "propagate_decay_closed_form", "qn_from_config", "qnum",
    "run_all", "sector_dimension", "spectrum", "trajectory",
    "truncated_dicke_propagate", "von_neumann_entropy",
]

__version__ = "0.1.0"
