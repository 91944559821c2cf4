"""Benchmark Hamiltonian generators built from Pauli strings.

Each Pauli string has exactly one nonzero per matrix row (row i pairs with
column i XOR xmask, where xmask collects the X/Y qubits), so a term scatters
into at most 2^|xmask| diagonals.  Terms that share an X/Y mask are summed
per position in term order (two masks never share one: row XOR col is the
mask), and ``diagmat.from_coo`` places the sums and drops exact-zero
diagonals, giving the compact diagonal form without densifying.

The chain generators build open-boundary 1D chains; coupling constants and
field strengths are exposed as parameters rather than hard-coded to any
published instance.  MODELS names each generator and the coupling parameters
it takes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagmat import COMPLEX, DiagMatrix, from_coo
from .errors import DomainError

MAX_QUBITS = 16

_AXES = ("I", "X", "Y", "Z")


@dataclass(frozen=True)
class PauliTerm:
    """coefficient * sigma_{n-1} x ... x sigma_0, axes indexed by qubit."""

    coefficient: complex
    axes: tuple[str, ...]

    def __post_init__(self):
        for ax in self.axes:
            if ax not in _AXES:
                raise DomainError(f"unknown Pauli axis {ax!r}")


def term(coefficient: complex, n: int, **site_axes: ...) -> PauliTerm:
    """Convenience builder: term(1.0, 4, q0='X', q1='X')."""
    axes = ["I"] * n
    for key, ax in site_axes.items():
        axes[int(key[1:])] = ax
    return PauliTerm(coefficient, tuple(axes))


def pauli_to_diagmatrix(terms: list[PauliTerm], n: int) -> DiagMatrix:
    """Sum of weighted Pauli strings as a DiagMatrix of dim 2^n."""
    if n < 1:
        raise DomainError("qubit count must be positive")
    if n > MAX_QUBITS:
        raise DomainError(f"{n} qubits exceeds the desk-scale cap of {MAX_QUBITS}")
    dim = 1 << n
    cols = np.arange(dim, dtype=np.int64)
    sums: dict[int, np.ndarray] = {}  # X/Y mask -> summed values at (col ^ mask, col)
    for t in terms:
        if len(t.axes) != n:
            raise DomainError(f"term has {len(t.axes)} axes, expected {n}")
        xmask = sum(1 << q for q, ax in enumerate(t.axes) if ax in ("X", "Y"))
        phase_mask = sum(1 << q for q, ax in enumerate(t.axes) if ax in ("Y", "Z"))
        # entry (row=j^xmask, col=j) = coeff * i^{#Y} * (-1)^{popcount(j & phase_mask)};
        # bitwise_count is uint8, so the signs are formed in float
        signs = 1.0 - 2.0 * (np.bitwise_count(cols & phase_mask) & 1)
        vals = t.coefficient * (1j ** t.axes.count("Y")) * signs
        sums[xmask] = sums.get(xmask, 0.0) + vals
    masks = np.array(list(sums), dtype=np.int64).reshape(-1, 1)
    return from_coo(dim, (cols ^ masks).ravel(), np.tile(cols, len(sums)),
                    np.concatenate([np.empty(0, COMPLEX), *sums.values()]))


# -- chain models --------------------------------------------------------------


def heisenberg_chain(n: int, jx: float = 1.0, jy: float = 1.0,
                     jz: float = 1.0) -> list[PauliTerm]:
    """sum over bonds of jx XX + jy YY + jz ZZ on a 1D chain."""
    terms = []
    for i in range(n - 1):
        for coeff, ax in ((jx, "X"), (jy, "Y"), (jz, "Z")):
            if coeff != 0:
                terms.append(term(coeff, n, **{f"q{i}": ax, f"q{i + 1}": ax}))
    return terms


def tfim_chain(n: int, g: float = 1.0) -> list[PauliTerm]:
    """-sum ZZ on bonds - g * sum X on sites."""
    terms = []
    for i in range(n - 1):
        terms.append(term(-1.0, n, **{f"q{i}": "Z", f"q{i + 1}": "Z"}))
    for i in range(n):
        if g != 0:
            terms.append(term(-g, n, **{f"q{i}": "X"}))
    return terms


def maxcut_ising(n: int, seed: int | None = None) -> list[PauliTerm]:
    """Cut-size cost operator sum over edges of (I - Z_i Z_j) / 2; purely diagonal.

    Default graph is the 1D ring; pass a seed to draw a random graph instead.
    """
    if n < 2:
        raise DomainError(f"maxcut needs at least 2 qubits, got {n}")
    if seed is None:
        edges = [(i, (i + 1) % n) for i in range(n)] if n > 2 else [(0, 1)]
    else:
        rng = np.random.default_rng(seed)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.5]
        if not edges:
            edges = [(0, 1)]
    terms = []
    for i, j in edges:
        terms.append(term(0.5, n))
        terms.append(term(-0.5, n, **{f"q{i}": "Z", f"q{j}": "Z"}))
    return terms


# model name -> (term builder, the coupling parameters it takes)
MODELS = {
    "heisenberg": (heisenberg_chain, ("jx", "jy", "jz")),
    "tfim": (tfim_chain, ("g",)),
    "maxcut": (maxcut_ising, ("seed",)),
    "maxcut-ising": (maxcut_ising, ("seed",)),
}


def gen_benchmark(model: str, n: int, **params) -> DiagMatrix:
    """Build a named benchmark Hamiltonian as a DiagMatrix of dim 2^n."""
    if model.lower() not in MODELS:
        raise DomainError(f"unknown model {model!r}; known: {', '.join(MODELS)}")
    build, _ = MODELS[model.lower()]
    return pauli_to_diagmatrix(build(n, **params), n)
