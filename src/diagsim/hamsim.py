"""Truncated-series matrix exponentiation driven through the grid stack.

exp(-i t H) is approximated by K+1 series terms; each iteration performs one
chained product T_k = T_{k-1} (-i t H) / k.  Given a GridSetup, the chain
also hands each product's offsets to blocking.simulate_product, which plans
it into grid jobs, counts them and charges them to the memory model; the
chain computes the values either way.  The running term is renormalized by
1/k at every step (rather than dividing by k! at the end) so the chain stays
finite for deep truncations, and cancellation debris below a relative floor
is dropped so the diagonal-count trajectory reflects genuine structure.

expm is the series driver: one chain at t / segments and eps / segments,
its U raised to the segments-th power by a left fold of diag_matmul,
functionally and uncharged, and the chain's records summed into the run's
stage cycles, counters and mem.  The fold runs one product per segment after
the first, so segments is capped at SEGMENT_CAP; a larger count is refused
before the chain runs.

When no fixed term count is given, the chain stops at the first k with
r = ||M||_1 / (k + 1) < 1 and S_k r / (1 - r) <= eps (Al-Mohy and Higham,
SIAM J. Sci. Comput. 33(2), 2011, bound the tail from computed terms too),
where S_k sums the largest magnitude of each diagonal T_k keeps after the
floor.  A column meets each diagonal at most once, so ||T_k||_1 <= S_k; and
T_{k+j} = T_k M^j / ((k+1)...(k+j)), so ||T_{k+j}||_1 <= S_k r^j and the
terms after T_k sum to at most S_k r / (1 - r) in the 1-norm (and, a row
meeting each diagonal once too, in the 2-norm for a Hermitian H, whose tail
is normal).  The floor's drops stay outside the bound, as they always were:
each is below CANCEL_EPS times its term's largest entry.  Either layout
holds the peaks every step already: the packed step's per-diagonal maxima of
|T_k| (drop_below), the dense step's peaks; S_k is np.sum over the kept ones
in ascending offset, so both give the same bits.  An exact ||T_k||_1 (the
row sums of |R_k^T|) stops heisenberg-8 at t = 0.5 and heisenberg-10 at
t = 1 one term sooner, and tfim-8 and heisenberg-6 at the same term, but
adds an n^2 pass per step, which cost the expm-func benchmark's chains more
time than the term saved.  A chain that reaches TERM_CAP terms above eps
raises ConvergenceError; under a fixed count the last record still holds
its bound (tail_bound), which may exceed eps, or be inf where r >= 1.

The chain runs in complex128 for every H.  A real H (every imaginary part
zero, as all three generators give) makes T_k = (-i)^k P_k for the real
P_k = P_{k-1} Q / k, Q = t Re(H), so T_k has one nonzero component, the real
one for even k and the imaginary one for odd k: R_k = +-P_k, and
R_k = R_{k-1} Q_k / k, where Q_k is -Q for odd k and Q for even k.  Each
complex product of one-component entries is one real product of R_{k-1} and
Q_k, plus a product with a zero factor, and the kernel's accumulator starts
at +0.0 (x + -0.0 = x), so T_k's component is R_k bit for bit and its other
one is +0.0.

Once such a term stores its share of n^2 scalars (DENSE_FILL if it stores
GROWING times the scalars of T_{k-1} or more, STALLED times that if not;
k < K, and no -0.0 in it or U), R_k, taken from T_k's nonzero component, and
U are held dense (_DenseChain) and U is packed once, at the end.  A product
is then Q_k^T R^T with Q^T built in CSR from H's packed buffer (_csr_t), its
column indices ascending: each entry starts at +0.0 and adds its terms in
ascending inner index, as diag_matmul does (spmspm).  Its extra terms each
have a zero factor, and x + -0.0 = x, so the bits are the same and no
product holds -0.0.  Only the 1/k scaling can then make a -0.0, by taking a
nonzero to zero, which raises the underflow flag; a step that raises it, or
whose product is not finite, goes back to the packed chain with T_{k-1},
R_{k-1} in component (k - 1) mod 2, which keeps that -0.0 or raises
DomainError as it always does.  The zero signs of T_{k-1}'s other component
cannot reach that product, whose accumulator starts at +0.0.  Without -0.0,
an entry U does not store may read +0.0 (-0.0 + x = +0.0 + x unless x is
-0.0), T_k's +0.0 other part changes nothing, and U += T_k is one real add
into a plane of U, which turns non-finite only by overflow, raising that
flag.

Held dense means held block by block.  If H never couples two sets of
states, no power of H does, so the chain finds the connected components of
Q^T's pattern once, at the switch (_layout).  Components under MIN_BLOCK
states share blocks; a block's states keep their ascending natural order.
With more than one block (_Blocks), R^T, the grid its product goes into and
U^T's planes are each one flat buffer of per-block m x m grids, and the
blocked chain is the whole one bit for bit:
- every entry of T_k and U between blocks is +0.0: a sum of products with a
  zero factor, started from +0.0, and the switch admits no -0.0;
- a row of Q^T reaches only its own block;
- within a block, Q^T's rows keep their columns in ascending natural order,
  so each held entry adds the same terms in the same order.
The switch prepares scipy's csr_matvecs arguments for each block, both
signs of Q and both roles of the two R grids (_calls), so a step is one
zero-fill, one C call per block and one pass over the flat buffer each for
the scaling, |R_k|, the add and the nonzero count, whose mask takes the
spent grid of R_{k-1}.  The per-diagonal peaks (the floor, the offsets, NaN
or inf for a non-finite product) come from np.maximum.at over each entry's
natural diagonal or, for an H of one block (tfim's) held in whole n x n
grids (_Band), from a band whose sheared view holds each diagonal of |R_k|
as a column.

Entering and leaving take a fixed number of numpy calls per plane, whatever
the diagonal count.  _Band scatters a packed matrix in, and zeroes the
floor's drops, at the flat positions r (n + 1) + max(0, d) n + max(0, -d) of
entry r of diagonal d (_positions).  _Blocks gathers a matrix in, and either
layout scatters U's planes or a handed-back R_{k-1} out, through each held
entry's slot in the packed buffer (slots), written into the spare R grid
seen as int64; entries off the buffer's diagonals fall on n slots past it.
U keeps the diagonals that hold a nonzero, as from_dense does, found by one
bitwise-or reduction of the packed parts.

MIN_BLOCK is 16: many small components need blocks of a dozen states or
more, as a product costs a call per block, and blocks much larger multiply
zeros.  DENSE_FILL is 0.02 and STALLED 5: a growing term switches a step
sooner than at 0.1, and 0.02 for every term would switch a diagonal term of
4 or 5 qubits (1/16 or 1/32 of n^2), which never grows from I and so keeps
the share of 0.1, as maxcut's does at every size.  GROWING is 2:
heisenberg's and tfim's terms of 6-12 qubits grow 6.6 to 17 times in the
step at which they switch.  A band of width w widens by 2w diagonals a step,
less than double from k = 2 on, where 0.02 would switch it with few
diagonals and its n^2 grids cost more than they save; so a band switches at
DENSE_FILL only at k = 1, and a chain whose terms never store 0.1 of n^2 and
never double into DENSE_FILL of it allocates no O(n^2).

Memory.  From the switch a one-block chain holds 48 n^2 bytes (the band 16,
U 16, R_k and the grid its product goes into 8 each), where the term alone
held at least 0.16 n^2.  The trade: a chain whose term stops growing between
0.02 and 0.5 of n^2 holds those 48 n^2 where its packed term and U held
under 12 n^2; the terms of heisenberg and tfim pass that range in two or
three steps, and maxcut's never enters it.  Blocks of m_b states hold S =
sum m_b^2 entries per grid, and the chain 48 S bytes: R_k, its spare and U's
two planes 8 S each, |R_k| 8 S and the diagonal map 8 S.  U is packed in
the natural basis once the band (or |R_k|) and R_k are freed.

The sweeps behind MIN_BLOCK, DENSE_FILL, STALLED and GROWING, and measured
memory peaks, are in CHANGES.md ("Dense-chain sweeps"); they were timed
while K came from ||M||_1^(K+1) / (K+1)! <= eps, with a fifth to a quarter
more terms, and each switch comes before either stop. """

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import repeat

import numpy as np
import scipy.sparse
from scipy.sparse._sparsetools import csr_matvecs

from .blocking import GridSetup, simulate_product
from .dataflow import StageCycles, fold
from .diagmat import (COMPLEX, DiagMatrix, buffer_starts, drop_below, drop_zero_diagonals,
                      identity, one_norm)
from .errors import ConvergenceError, DomainError
from .memory import MemStats, SetAssocCache
from .spmspm import diag_matmul

TERM_CAP = 64
SEGMENT_CAP = 1024  # most --segments: the outer power runs segments - 1 products
DEFAULT_EPS = 1e-8  # the remainder threshold when neither terms nor eps is chosen
CANCEL_EPS = 1e-14
DENSE_FILL = 0.02  # share of n^2 a real H's growing term stores when the chain turns dense
GROWING = 2  # a term grows if it stores GROWING times the scalars of the term before
STALLED = 5  # a term that does not grow needs STALLED times that share
MIN_BLOCK = 16  # states; smaller components of H share the dense chain's blocks


@dataclass(frozen=True)
class TaylorConfig:
    """Series truncation controls: exactly one of terms / eps governs."""

    t: float = 1.0
    terms: int | None = None
    eps: float | None = None

    def __post_init__(self):
        if (self.terms is None) == (self.eps is None):
            raise DomainError("exactly one of terms / eps must be given")
        if not math.isfinite(self.t):
            raise DomainError(f"t must be finite, got {self.t}")
        if self.eps is not None and not 0 < self.eps < math.inf:
            raise DomainError(f"eps must lie in (0, inf), got {self.eps}")
        if self.terms is not None and not (0 <= self.terms <= TERM_CAP):
            raise DomainError(f"terms must lie in [0, {TERM_CAP}]")


@dataclass
class IterationRecord:
    k: int
    nnzd: int
    nnze: int
    storage_scalars: int
    savings: float
    stage_cycles: StageCycles
    mem: MemStats
    counters: dict
    tail_bound: float = math.inf  # on the 1-norm of the terms after this one (_tail)


def _tail(peak_sum, r: float) -> float:
    """peak_sum r / (1 - r), the bound on the 1-norm of the series' tail past a
    term whose diagonal peaks sum to peak_sum, r = ||M||_1 / (k + 1); 0.0 if
    the peaks are all zero, inf if r >= 1 (module docstring)."""
    if not peak_sum:
        return 0.0
    return float(peak_sum * r / (1.0 - r)) if r < 1.0 else math.inf


def taylor_expm(h: DiagMatrix, cfg: TaylorConfig, grid: GridSetup | None = None,
                ) -> tuple[DiagMatrix, list[IterationRecord]]:
    """Approximate exp(-i t H); returns (U, per-iteration records).

    Given a grid, every product is also planned from its operands' offsets,
    run through the blocked grid model and a fresh cache of grid.cache, and
    its plan checked to cover it (simulate_product); each record's mem is its
    product's share of that cache's stats.  U is the same either way.
    """
    n = h.dim
    m = h.scaled(-1j * cfg.t)
    norm = one_norm(m)
    eps = cfg.eps
    tail = _tail(1.0, norm)  # T_0 = I: one diagonal, peak 1
    k_max = cfg.terms if eps is None else 0 if tail <= eps else TERM_CAP
    real = not h.values.imag.any()  # only a real H's chain turns dense (module docstring)
    cache = SetAssocCache(grid.cache) if grid is not None else None
    counted: dict = {}  # this chain's memo of distinct products (blocking module docstring)

    u = t_k = identity(n)
    dense = None  # the _DenseChain once a real H's term fills its share of n^2
    offsets, scalars = t_k.offset_array, n
    records: list[IterationRecord] = []
    for k in range(1, k_max + 1):
        stepped = dense and dense.step(k)
        if stepped:
            made, live, nnze, peak_sum = stepped
        else:
            if dense:  # underflow or overflow: the packed chain keeps -0.0 or raises
                (t_k, u), dense = dense.hand_back(k), None
            product = diag_matmul(t_k, m)
            made = product.offset_array
            t_k = product.scaled(1.0 / k)
            mag = np.abs(t_k.values)  # one magnitude pass: the floor, the drop and nnze
            peak_sum = 0.0
            if t_k.nnzd:
                t_k, mag, peak = drop_below(t_k, mag, CANCEL_EPS * mag.max())
                peak_sum = np.sum(peak)
            u = u.add(t_k)
            live, nnze = t_k.offset_array, int(np.count_nonzero(mag != 0))
        tail = _tail(peak_sum, norm / (k + 1))
        if grid is not None:
            stage, counters, mem = simulate_product(
                n, offsets, m.offsets, made.tolist(), grid, cache,
                tags=(f"T{k - 1}", "M", f"T{k}"), counted=counted)
        else:
            stage, counters, mem = StageCycles(0, 0, 0, 0), {}, MemStats()
        before, scalars = scalars, n * len(live) - int(np.abs(live).sum())
        offsets = live
        records.append(IterationRecord(
            k=k, nnzd=len(live), nnze=nnze, storage_scalars=scalars,
            savings=1.0 - scalars / float(n) ** 2,
            stage_cycles=stage, mem=mem, counters=counters, tail_bound=tail,
        ))
        if not len(live) or (eps is not None and tail <= eps):
            break  # the tail bound holds, or exact nilpotency: every later term is zero
        share = DENSE_FILL * (1 if scalars >= GROWING * before else STALLED)
        if (real and not dense and k < k_max and scalars >= share * n * n
                and not _negative_zero(t_k.values) and not _negative_zero(u.values)):
            product = mag = None  # no packed buffer outlives the switch
            dense, t_k, u = _DenseChain(t_k, k, u, _csr_t(h, cfg.t)), None, None
    if eps is not None and tail > eps:
        raise ConvergenceError(
            f"the series tail bound is still {tail:.3g} after {TERM_CAP} terms, above "
            f"eps={eps:g}; more --segments shorten each chain")
    if dense:
        u, dense = dense.take_u(), None
    return u, records


def expm(h: DiagMatrix, cfg: TaylorConfig, grid: GridSetup | None = None, segments: int = 1):
    """exp(-i cfg.t H) as U^segments, U one taylor_expm chain at cfg.t / segments
    to cfg.eps / segments; returns (U^segments, U's records, their summed stage
    cycles, counters and mem, and the tail bound of U^segments: for a Hermitian
    H, ||U^segments - exp(-i cfg.t H)||_2 <= (1 + b)^segments - 1, b the bound
    after U's last term, from rounding and the floor's drops apart)."""
    if segments < 1:
        raise DomainError(f"--segments must be at least 1, got {segments}")
    if segments > SEGMENT_CAP:
        raise DomainError(f"--segments must be at most {SEGMENT_CAP}, got {segments}")
    t, eps = cfg.t / segments, None if cfg.eps is None else cfg.eps / segments
    u, records = taylor_expm(h, TaylorConfig(t, cfg.terms, eps), grid)
    stage, counters = fold((r.stage_cycles, r.counters) for r in records)
    mem = reduce(MemStats.__iadd__, (r.mem for r in records), MemStats())
    tail = records[-1].tail_bound if records else _tail(1.0, one_norm(h.scaled(-1j * t)))
    if segments > 1:
        tail = math.expm1(segments * math.log1p(tail))
    return reduce(diag_matmul, repeat(u, segments - 1), u), records, stage, counters, mem, tail


def _negative_zero(values: np.ndarray) -> bool:
    """Whether some float64 part of values is -0.0."""
    parts = values.view(np.float64)
    return bool(np.signbit(parts[parts == 0]).any())


def _csr_t(h: DiagMatrix, t: float):
    """(t Re H)^T in CSR from H's packed buffer, each row's column indices
    ascending, explicit zeros (-0.0 too) dropped, as scipy's diags_array of the
    diagonals gives it.  Entry r of diagonal d is Q^T's (r + max(0, d), r + max(0, -d)),
    so a row's columns ascend as its diagonals' offsets descend."""
    n, offsets, lengths = h.dim, h.offset_array, np.diff(h.starts)
    data = h.values.real * t
    r = np.arange(len(data)) - np.repeat(h.starts[:-1], lengths)
    rows = r + np.repeat(np.maximum(0, offsets), lengths)
    cols = r + np.repeat(np.maximum(0, -offsets), lengths)
    kept = np.flatnonzero(data)[::-1]  # in descending offset
    order = kept[np.argsort(rows[kept], kind="stable")]
    index = np.int32 if max(len(order), n) <= np.iinfo(np.int32).max else np.int64  # scipy's
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows[order], minlength=n)))).astype(index)
    return scipy.sparse.csr_array((data[order], cols[order].astype(index), indptr), shape=(n, n))


def _calls(blocks, r_t: np.ndarray, out: np.ndarray) -> tuple[list, list]:
    """csr_matvecs's arguments for each block's product Q_k^T R^T from grid
    r_t into grid out, for Q_k = Q and for -Q (_dense_product), from the
    block's rows of Q^T in CSR, its data for each sign."""
    r_t, out = r_t.reshape(-1), out.reshape(-1)
    return tuple([(m, m, m, indptr, indices, data[sign], r_t[lo:lo + m * m], out[lo:lo + m * m])
                  for lo, m, indptr, indices, data in blocks] for sign in (0, 1))


def _dense_product(out: np.ndarray, calls) -> np.ndarray:
    """(R Q)^T = Q^T R^T into out, one scipy csr_matvecs (the kernel of
    q_t @ r_t) per block on the arguments _calls prepared: each entry starts
    at +0.0 and adds its terms in ascending inner index, the order of spmspm."""
    out.fill(0.0)
    for args in calls:
        csr_matvecs(*args)
    return out


def _grid(shape: tuple[int, ...], at: int) -> np.ndarray:
    """A zero float64 grid whose first entry lies at byte at of a 4 KiB page.
    A product whose entries lie a few bytes after its operand's, modulo 4 KiB,
    takes three times as long (false store-to-load dependencies), so the
    chain's two R grids lie half a page apart."""
    size = math.prod(shape)
    buf = np.zeros(size + 512)
    skip = (at - buf.ctypes.data) % 4096 // 8
    return buf[skip:skip + size].reshape(shape)


def _positions(n: int, offsets: np.ndarray) -> np.ndarray:
    """Where each packed entry of these diagonals of M lies in a flat n x n
    grid of M^T: entry r of diagonal d at r (n + 1) + max(0, d) n + max(0, -d)."""
    starts = buffer_starts(n, offsets)
    first = np.maximum(0, offsets) * n + np.maximum(0, -offsets)
    last = first + (np.diff(starts) - 1) * (n + 1)
    steps = np.full(starts[-1], n + 1)  # from each entry to the next: n + 1 along a diagonal
    steps[starts[:-1]] = first - np.append(0, last[:-1])
    return np.cumsum(steps, out=steps)


def _table(n: int, offsets: np.ndarray) -> tuple[np.ndarray, int]:
    """By d + n - 1, where entry (a, b) of M^T, d = a - b, lies in the packed
    buffer of these diagonals of M, less b: start(d) + min(0, d); for a
    diagonal not among them, the buffer's length, so that its entries fall on
    the n slots past the buffer.  Returns (table, the buffer's length)."""
    starts = buffer_starts(n, offsets)
    table = np.full(2 * n - 1, starts[-1])
    table[offsets + n - 1] = starts[:-1] + np.minimum(0, offsets)
    return table, int(starts[-1])


def _components(q_t) -> np.ndarray:
    """Each state's connected component in Q^T's pattern, named by its least
    state; a stored entry is an edge both ways, zero or not.  Each round hooks
    every root to the least root across its edges, then points each state at
    its new root, until no root moves (two rounds for heisenberg, tfim and
    maxcut, 12 for a random path of 65,536 states)."""
    n = q_t.shape[0]
    rows, cols = np.repeat(np.arange(n), np.diff(q_t.indptr)), q_t.indices
    label = np.arange(n)
    while True:
        a, b = label[rows], label[cols]
        hooked = label.copy()
        np.minimum.at(hooked, a, b)
        np.minimum.at(hooked, b, a)
        while not np.array_equal(hooked, jumped := hooked[hooked]):
            hooked = jumped
        if np.array_equal(hooked, label):
            return label
        label = hooked


def _layout(q_t) -> _Band | _Blocks:
    """_Blocks over the connected components of Q^T's pattern (_csr_t), those
    under MIN_BLOCK states merged, in the order of their first states, into
    blocks of MIN_BLOCK or more (the last may hold fewer); _Band if that
    leaves one block."""
    _, label = np.unique(_components(q_t), return_inverse=True)  # by first state
    sizes = np.bincount(label)
    if len(sizes) > 1:
        block, blocks, small, fill = np.empty(len(sizes), np.int64), 0, -1, MIN_BLOCK
        for c, size in enumerate(sizes.tolist()):
            if size >= MIN_BLOCK:
                block[c], blocks = blocks, blocks + 1
                continue
            if fill >= MIN_BLOCK:  # open a block for the small components
                small, blocks, fill = blocks, blocks + 1, 0
            block[c], fill = small, fill + size
        if blocks > 1:
            return _Blocks(q_t, block[label])
    return _Band(q_t)


class _Band:
    """One block, the whole matrix: n x n grids, and from the first peaks a
    band: n rows of pitch 2n - 1, each after n - 1 pads, then n - 1 more, whose
    (n, 2n - 1) sheared view holds diagonal d of the transposed window (each
    row's last n) in column n - 1 - d, pads elsewhere."""

    def __init__(self, q_t):
        n = self.n = q_t.shape[0]
        self.shape, self.window = (n, n), None
        self.blocks = [(0, n, q_t.indptr, q_t.indices, (q_t.data, -q_t.data))]  # as _Blocks'

    def peaks(self, grid: np.ndarray) -> np.ndarray:
        """Each diagonal's largest |entry| of the grid's transpose, by offset;
        NaN or inf where an entry is."""
        n = self.n
        if self.window is None:  # once the packed chain's buffers are gone
            band = np.zeros(n * (2 * n - 1) + n - 1)
            self.window = band[:n * (2 * n - 1)].reshape(n, 2 * n - 1)[:, n - 1:]
            self.sheared = np.lib.stride_tricks.as_strided(band, (n, 2 * n - 1), (16 * n, 8))
        np.abs(grid, out=self.window)
        return self.sheared.max(axis=0)[::-1]

    def zero(self, grid: np.ndarray, drop: np.ndarray) -> None:
        """Zero the diagonals that drop marks, by offset + n - 1."""
        grid.reshape(-1)[_positions(self.n, np.flatnonzero(drop) + 1 - self.n)] = 0.0

    def load(self, m: DiagMatrix, planes, scratch: np.ndarray) -> None:
        """Write part of m's values, for each (zero grid, part) of planes."""
        flat = _positions(self.n, m.offset_array)
        for grid, part in planes:
            grid.reshape(-1)[flat] = part(m.values)

    def slots(self, offsets: np.ndarray, out: np.ndarray) -> int:
        """Into out, where each grid entry lies in the packed buffer of these
        offsets (_table); returns the buffer's length."""
        n, (table, total) = self.n, _table(self.n, offsets)
        by_entry = np.lib.stride_tricks.as_strided(  # [a, b] is table[n - 1 + a - b]
            table[n - 1:], (n, n), (table.itemsize, -table.itemsize), writeable=False)
        np.add(by_entry, np.arange(n), out=out.reshape(n, n))
        return total

    def free(self) -> None:
        self.window = self.sheared = None


class _Blocks:
    """H's blocks: a grid is one flat buffer of per-block m x m grids, block
    states s in ascending natural index, entry (i, c) holding (s_i, s_c) of
    the transposed matrix; entries between blocks are +0.0 and not held.  at
    maps each entry to its natural diagonal, offset + n - 1."""

    def __init__(self, q_t, block: np.ndarray):
        """From Q^T (_csr_t) and each state's block."""
        n = self.n = q_t.shape[0]
        order = np.argsort(block, kind="stable")  # by block, each ascending
        sizes = np.bincount(block)
        ends = np.cumsum(sizes)
        local = np.empty(n, np.int64)
        local[order] = np.arange(n) - np.repeat(ends - sizes, sizes)
        # Q^T's rows in that order, each keeping its entries in ascending
        # column order, the columns numbered within the block
        counts = np.diff(q_t.indptr)[order]
        indptr = np.concatenate(([0], np.cumsum(counts))).astype(q_t.indptr.dtype)
        take = np.repeat(q_t.indptr[order] - indptr[:-1], counts) + np.arange(indptr[-1])
        indices, data = local[q_t.indices[take]].astype(q_t.indices.dtype), q_t.data[take]
        self.states, self.blocks, lo = [], [], 0
        for m, end in zip(sizes.tolist(), ends.tolist()):
            first, last = indptr[end - m], indptr[end]
            q = data[first:last]  # its rows of Q^T, columns numbered within it
            self.blocks.append((lo, m, indptr[end - m:end + 1] - first, indices[first:last],
                                (q, -q)))
            self.states.append(order[end - m:end])
            lo += m * m
        self.shape, self.mag = (lo,), None
        self.at = np.concatenate([np.subtract.outer(s, s).ravel() for s in self.states]) + (n - 1)

    def peaks(self, grid: np.ndarray) -> np.ndarray:
        """_Band.peaks, over the blocks."""
        if self.mag is None:  # once the packed chain's buffers are gone
            self.mag = np.empty(self.shape)
        peak = np.zeros(2 * self.n - 1)
        np.maximum.at(peak, self.at, np.abs(grid, out=self.mag))
        return peak

    def zero(self, grid: np.ndarray, drop: np.ndarray) -> None:
        grid[drop[self.at]] = 0.0

    def load(self, m: DiagMatrix, planes, scratch: np.ndarray) -> None:
        """_Band.load, by gathers through m's slots, which go into scratch."""
        total = self.slots(m.offset_array, scratch)
        source = np.zeros(total + self.n)
        for grid, part in planes:
            source[:total] = part(m.values)
            np.take(source, scratch, out=grid)

    def slots(self, offsets: np.ndarray, out: np.ndarray) -> int:
        """_Band.slots: at into the table, plus each entry's column state."""
        table, total = _table(self.n, offsets)
        np.take(table, self.at, out=out)
        for (lo, m, *_), s in zip(self.blocks, self.states):
            out[lo:lo + m * m].reshape(m, m)[:] += s
        return total

    def free(self) -> None:
        self.mag = None


class _DenseChain:
    """R_k^T, the grid its product goes into (spare) and U^T's real and
    imaginary planes as float64 grids of one layout (_layout): +0.0 where a
    matrix stores nothing, never -0.0.  Each matrix goes in, and U and a
    handed-back R_k out, by one gather or scatter per plane."""

    def __init__(self, t_k: DiagMatrix, k: int, u: DiagMatrix, q_t):
        """From T_k, whose component k mod 2 is R_k, U and Q^T (_csr_t)."""
        n = self.n = t_k.dim
        self.offsets = np.arange(1 - n, n)
        self.stored = np.isin(self.offsets, u.offset_array)  # U's diagonals, zero ones too
        self.live = t_k.offset_array  # R_k's diagonals, each holding a nonzero
        layout = self.layout = _layout(q_t)
        self.u = [np.zeros(layout.shape), np.zeros(layout.shape)]
        grids = _grid(layout.shape, 0), _grid(layout.shape, 2048)
        # each R grid with the product calls that read it, by the sign of Q_k
        self.r_t, self.spare = ((grid, _calls(layout.blocks, grid, out))
                                for grid, out in (grids, grids[::-1]))
        scratch = grids[1].view(np.int64)  # the spare grid holds slots till a product
        layout.load(u, ((self.u[0], np.real), (self.u[1], np.imag)), scratch)
        layout.load(t_k, ((grids[0], (np.real, np.imag)[k % 2]),), scratch)

    def take_u(self) -> DiagMatrix:
        """U with each diagonal that holds a nonzero (from_dense's); spends the chain."""
        layout, slots = self.layout, self.spare[0].view(np.int64)
        self.layout = self.r_t = self.spare = None  # R_k and the band or |R_k| go first
        layout.free()
        offsets = self.offsets[self.stored]
        total = layout.slots(offsets, slots)  # into the spare grid, which slots keeps
        values = np.zeros(total + self.n, COMPLEX)
        values.real[slots], values.imag[slots] = self.u
        self.u = None
        u = DiagMatrix.packed(self.n, offsets, values[:total])
        # a diagonal whose parts' bits, OR-ed, are at most a sign bit holds only zeros
        if (np.bitwise_or.reduceat(u.values.view(np.uint64), 2 * u.starts[:-1]) << 1).all():
            return u
        return drop_zero_diagonals(u)  # a stored diagonal cancelled

    def hand_back(self, k: int) -> tuple[DiagMatrix, DiagMatrix]:
        """T_{k-1}, with R_{k-1} in component (k - 1) mod 2, and U (take_u), after
        step k failed; spends the chain."""
        slots = self.spare[0].view(np.int64)
        total = self.layout.slots(self.live, slots)
        values = np.zeros(total + self.n)
        values[slots] = self.r_t[0]
        t_k = DiagMatrix.packed(self.n, self.live, values[:total] * 1j ** ((k - 1) % 2))
        return t_k, self.take_u()

    def step(self, k: int):
        """R_k from R_{k-1}, the floor and U += T_k; returns the product's nonzero
        offsets, R_k's offsets, its nonzero count and the sum of its kept peaks.
        None, with R_{k-1} and U as they were, if the product is not finite (the
        packed chain raises) or its scaling underflows; DomainError, as the
        packed sum raises it, if U is not."""
        layout, (product, _), (_, calls) = self.layout, self.spare, self.r_t
        _dense_product(product, calls[k % 2])
        try:
            with np.errstate(under="raise"):
                product *= 1.0 / k
        except FloatingPointError:
            return None
        peak = layout.peaks(product)
        top = peak.max()
        if not np.isfinite(top):
            return None
        self.r_t, self.spare = self.spare, self.r_t  # R_{k-1} is spent
        live, made = peak > CANCEL_EPS * top, peak > 0
        self.live, made_offsets = self.offsets[live], self.offsets[made]
        peak_sum = np.sum(peak[live])
        if len(made_offsets) > len(self.live):  # live diagonals are made ones
            layout.zero(product, made & ~live)
        self.stored |= live
        try:
            with np.errstate(over="raise"):  # finite U + R_k is finite unless it overflows
                self.u[k % 2] += product
        except FloatingPointError:
            self.take_u()  # raises the DomainError of the packed chain's sum
        nonzero = self.spare[0].reshape(-1).view(np.bool_)[:product.size]  # no new buffer
        np.not_equal(product, 0.0, out=nonzero.reshape(product.shape))
        return made_offsets, self.live, int(np.count_nonzero(nonzero)), peak_sum
