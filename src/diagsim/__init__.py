"""diagsim: diagonal-sparse SpMSpM kernels plus a cycle-level grid model."""

from .diagmat import (
    COMPLEX,
    DiagMatrix,
    Diagonal,
    diag_length,
    drop_zero_diagonals,
    from_dense,
    identity,
    one_norm,
    to_dense,
)
from .spmspm import dense_matmul_oracle, diag_matmul, multiply_count
from .hamiltonians import PauliTerm, gen_benchmark, pauli_to_diagmatrix

__all__ = [
    "COMPLEX",
    "DiagMatrix",
    "Diagonal",
    "PauliTerm",
    "dense_matmul_oracle",
    "diag_length",
    "diag_matmul",
    "drop_zero_diagonals",
    "from_dense",
    "gen_benchmark",
    "identity",
    "multiply_count",
    "one_norm",
    "pauli_to_diagmatrix",
    "to_dense",
]
