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
from .spmspm import (
    OverlapRange,
    dense_matmul_oracle,
    diag_matmul,
    minkowski,
    multiply_count,
    overlap_range,
)
from .hamiltonians import PauliTerm, gen_benchmark, pauli_to_diagmatrix

__all__ = [
    "COMPLEX",
    "DiagMatrix",
    "Diagonal",
    "OverlapRange",
    "PauliTerm",
    "dense_matmul_oracle",
    "diag_length",
    "diag_matmul",
    "drop_zero_diagonals",
    "from_dense",
    "gen_benchmark",
    "identity",
    "minkowski",
    "multiply_count",
    "one_norm",
    "overlap_range",
    "pauli_to_diagmatrix",
    "to_dense",
]
