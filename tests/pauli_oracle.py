"""The Pauli-sum generator as it was written term by term: the tests' oracle.

hamiltonians.pauli_to_diagmatrix sums the terms that share an X/Y mask and
hands every entry to diagmat.from_coo at once.  This version walks each term
with a bit-count loop, splits it by the pattern of column bits under its
X/Y mask, and adds each piece into its diagonal with one np.add.at.  Both
add each position's term values in term order onto +0.0, so their outputs
must agree bit for bit, signed zeros included.
"""

from __future__ import annotations

import numpy as np

from diagsim.diagmat import COMPLEX, diag_length, drop_zero_diagonals

from conftest import diag_matrix


def popcount(arr: np.ndarray) -> np.ndarray:
    out = np.zeros_like(arr)
    work = arr.copy()
    while np.any(work):
        out += work & 1
        work >>= 1
    return out


def scatter(acc: dict[int, np.ndarray], d: int, rows: np.ndarray, vals: np.ndarray, dim: int):
    vec = acc.get(d)
    if vec is None:
        vec = np.zeros(diag_length(dim, d), dtype=COMPLEX)
        acc[d] = vec
    np.add.at(vec, rows - max(0, -d), vals)


def pauli_oracle(terms, n: int):
    """Sum of weighted Pauli strings as a DiagMatrix of dim 2^n, term by term."""
    dim = 1 << n
    cols = np.arange(dim, dtype=np.int64)
    acc: dict[int, np.ndarray] = {}
    for t in terms:
        xmask = 0
        phase_mask = 0  # qubits contributing (-1)^bit: Y and Z
        n_y = 0
        for q, ax in enumerate(t.axes):
            if ax in ("X", "Y"):
                xmask |= 1 << q
            if ax in ("Y", "Z"):
                phase_mask |= 1 << q
            if ax == "Y":
                n_y += 1
        rows = cols ^ xmask
        # entry (row=j^xmask, col=j) = coeff * i^{#Y} * (-1)^{popcount(j & phase_mask)}
        signs = 1 - 2 * (popcount(cols & phase_mask) & 1)
        vals = t.coefficient * (1j ** n_y) * signs.astype(COMPLEX)
        # each pattern of col bits inside xmask is one offset
        if xmask == 0:
            scatter(acc, 0, rows, vals, dim)
        else:
            pattern = cols & xmask
            for pat in np.unique(pattern):
                sel = pattern == pat
                d = int(pat - (pat ^ xmask))  # col - row is constant per pattern
                scatter(acc, d, rows[sel], vals[sel], dim)
    return drop_zero_diagonals(diag_matrix(dim, acc), 0.0)
