"""Truncated-series matrix exponentiation driven through the grid stack.

exp(-i t H) is approximated by K+1 series terms; each iteration performs one
chained product T_k = T_{k-1} (-i t H) / k.  Given a GridSetup, each
product is also planned from its operands' offsets into grid jobs, counted by
the closed-form grid model and charged to the memory model
(simulate_product); the chain computes the values either way.  The
running term is renormalized by 1/k at every step (rather than dividing by
k! at the end) so the chain stays finite for deep truncations, and
cancellation debris below a relative floor is dropped so the diagonal-count
trajectory reflects genuine structure.

expm is the series driver: one chain at t / segments and eps / segments,
its U raised to the segments-th power by a left fold of diag_matmul,
functionally and uncharged, and the chain's records summed into the run's
stage cycles, counters and mem.  The fold runs one product per segment after
the first, so segments is capped at SEGMENT_CAP; a larger count is refused
before the chain runs.

A product's plan, its jobs' grid figures and its multiply count depend on
nothing but n, the operands' offsets and the GridSetup, so a chain counts
each distinct product once: simulate_product keeps them in a dict that
lives in one taylor_expm call.  Q and -Q share offsets and a term's offsets
stop changing once its band fills, so the expm-sim benchmark's chain
(heisenberg-6, t = 1, 41 products) has 10 distinct products and runs 41
grid jobs in place of 227.  Each product is charged to the cache in one
memory.charge_job call, with its jobs' line pattern (A group, B group and
output offsets per job, kept with the plan).  The cache replays a product
whose pattern, entry state up to the tags and charged lines it has met
before, and steps any other, so that chain steps 10 products and replays
the other 31.  Every product is checked against its own offsets; no figure
and no replay carries over from one call to the next.

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
its bound (tail_bound), which may exceed eps, or be inf where r >= 1.  The
tables below were timed while K came from ||M||_1^(K+1) / (K+1)! <= eps,
with a fifth to a quarter more terms; each switch comes before either stop.

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
is then Q_k^T R^T with Q^T built in CSR straight from t Re(H), its column
indices ascending: each entry starts at +0.0 and adds its terms in
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
A step calls the product once per block, on the block's rows of Q^T (cut
from the rows permuted by block, columns numbered within it), and scaling,
|R_k|, the add and the nonzero count each take one pass over the flat
buffer.  The per-diagonal peaks (the floor, the offsets, NaN or inf for a
non-finite product) come from np.maximum.at over each entry's natural
diagonal, and each matrix goes in, and U and a handed-back R_{k-1} come
out, through (offset, position) maps: no n x n array is built.  An H of one
block, as tfim is, keeps whole n x n grids (_Band): |R_k| goes into a band
whose sheared view holds each diagonal as a column, whose maxima are the
peaks, and each matrix goes in and out one diagonal at a time.  Either way,
the nonzero count's mask takes the spent grid of R_{k-1}.

MIN_BLOCK is 16, from whole chains (eps 1e-8) at each minimum block size,
median ms of alternating in-process runs (41 at heisenberg-6, 21 at
heisenberg-8, 15 at heisenberg-10, 5 and 11 for the groups); "whole" is one
block.  A group H couples each of n / 2 (or n / 4) random sets of 2 (or 4)
states, all of whose pairs it couples, so its components spread over about
n diagonals.

    chain, t                     1       4       8      16      32      64   whole
    heisenberg-6, 1           3.58    3.47    3.34    3.50    3.40    3.69    3.65
    heisenberg-8, 0.5         11.1    11.2    11.7    11.4    11.6    14.1    26.9
    heisenberg-10, 0.5         120     118     111     109     118     112     388
    groups of 2, n 1024, 0.5  89.4    75.9    69.3    63.7    64.7    72.8     181
    groups of 4, n 256, 0.5   16.7    15.8    15.4    13.4    15.4    14.2    20.9

Heisenberg's chains hardly depend on it, as its small components (of 1 and
q states) hold few entries; many small components need blocks of a dozen
states or more, as a product costs a call per block, and blocks much larger
multiply zeros.

DENSE_FILL is 0.02 and STALLED 5, from whole chains (eps 1e-8) under each
rule: one share of 0.1 for every term (the rule before), or 0.05 or 0.02
for a term that grew and 0.1 for one that did not; median ms (of 9 runs at
6-8 qubits, 5 at 10, 2 at 12, the rules taking turns) / tracemalloc peak in
MiB, and the step that switches.  heisenberg runs on blocks, tfim on whole
grids.

    chain, t                   0.1          0.05, 0.1         0.02, 0.1
    heisenberg-6, 0.5     2.5/0.2 k=1      2.5/0.2 k=1      2.4/0.2 k=1
    heisenberg-8, 0.5     8.4/1.9 k=2      7.1/1.9 k=1      7.2/1.9 k=1
    heisenberg-10, 0.5   102/28.2 k=2     102/28.2 k=2     102/28.2 k=2
    heisenberg-12, 0.25  1792/444 k=3     1697/444 k=3     1562/444 k=2
    tfim-6, 0.5           2.8/0.3 k=1      2.8/0.3 k=1      2.8/0.3 k=1
    tfim-8, 0.5          20.0/3.3 k=2     19.0/3.3 k=1     18.8/3.3 k=1
    tfim-10, 0.5          424/48.8 k=2     432/48.8 k=2     425/48.8 k=2
    tfim-12, 0.25        6776/772 k=3     6686/772 k=2     6742/772 k=2

Switching one step sooner saves 5-15% at 8 qubits, 13% at heisenberg-12
and 1% at tfim-12; at 6 and 10 qubits every rule switches at the same
step.  One share of 0.02 or 0.05 would switch a diagonal term of 4 qubits,
1/16 of n^2, and of 5, 1/32: such a term never grows from I, so it keeps
the share of 0.1, as does maxcut's at every size.

GROWING is 2.  The table ran with "grew" as any growth; heisenberg's and
tfim's terms of 6-12 qubits grow 6.6 to 17 times in the step at which they
switch, so it holds for any GROWING up to 6.  A band of width w (entries
within w of the diagonal) widens by 2w diagonals a step, less than double
from k = 2 on, where the share of 0.02 would switch it with few diagonals,
and its n^2 grids cost more than they save.  Whole chains (eps 1e-8,
t = 0.5, values uniform in [-1, 1], symmetric), median ms of 9 alternating
runs / tracemalloc peak in MiB, and the step that switches ("-": none); a
lattice couples each state to those 1 and sqrt(n) away:

    H, n                    0.1            0.02 if grown      0.02 if doubled
    tridiagonal, 128     3.18/0.86 k=7     1.91/0.86 k=1     1.83/0.86 k=1
    tridiagonal, 256     3.03/0.66 -       5.00/3.13 k=3     2.66/0.66 -
    tridiagonal, 512     3.81/1.30 -      11.32/12.3 k=5     3.32/1.30 -
    pentadiagonal, 256   6.04/3.16 k=7     5.39/3.16 k=2     6.11/3.16 k=7
    pentadiagonal, 1024  16.2/5.67 -       46.0/48.4 k=5     16.2/5.67 -
    lattice, 256         6.96/3.16 k=4     6.29/3.16 k=2     6.21/3.16 k=2
    lattice, 1024        52.6/48.4 k=7     53.0/48.4 k=3     52.1/48.4 k=7

So a band switches at DENSE_FILL only at k = 1, where T_1 holds three or
five times I's scalars (n up to 150 for a tridiagonal H, 250 for a
pentadiagonal one), and otherwise at 0.1 of n^2, as before: a chain whose
terms never store 0.1 of n^2 and never double into DENSE_FILL of it
allocates no O(n^2).

Memory.  From the switch a one-block chain holds 48 n^2 bytes (the band 16,
U 16, R_k and the grid its product goes into 8 each), where the term alone
held at least 0.16 n^2; the packed chain's accumulator and sums reach more
(never switching, heisenberg-8 at t = 0.5 peaked at 6.7 MiB and
heisenberg-10 at 106).  The trade: a chain whose term stops growing between
0.02 and 0.5 of n^2 holds those 48 n^2 where its packed term and U held
under 12 n^2; the terms of heisenberg and tfim pass that range in two or
three steps, and maxcut's never enters it.  Blocks of m_b states hold S =
sum m_b^2 entries per grid, and the chain 48 S bytes: R_k, its spare and
U's two planes 8 S each, |R_k| 8 S and the diagonal map 8 S.  For
heisenberg, S is 0.199, 0.176 and 0.161 of n^2 at 8, 10 and 12 qubits, and
the peaks fell from 3.2, 48.6 and 770 MiB on whole grids to 1.9, 28.2 and
444; U is packed in the natural basis at the end, as large as before. """

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import repeat
from typing import NamedTuple

import numpy as np
import scipy.sparse
from scipy.sparse._sparsetools import csr_matvecs

from .blocking import check_cuts, group_sizes, make_plan
from .dataflow import FeedConfig, StageCycles, add_counters, check_interleave, run_job
from .diagmat import (COMPLEX, DiagMatrix, buffer_starts, diagonal_view, drop_below,
                      drop_zero_diagonals, identity, one_norm)
from .errors import ConvergenceError, DomainError, VerificationError
from .memory import CacheConfig, MemStats, SetAssocCache, charge_job, flush_product
from .spmspm import diag_matmul, multiply_count

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


@dataclass(frozen=True)
class GridSetup:
    rows: int = 32
    cols: int = 32
    feed: FeedConfig = field(default_factory=FeedConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    cuts: tuple[int, ...] | None = None
    a_group_size: int | None = None
    b_group_size: int | None = None
    interleave: int = 1

    def __post_init__(self):
        """Check the settings that hold whatever the operands, even if nothing plans."""
        group_sizes(self.rows, self.cols, self.a_group_size, self.b_group_size)
        check_cuts(self.cuts)
        check_interleave(self.interleave)


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
    counted: dict = {}  # this chain's distinct products (simulate_product)

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
    stage, counters = _fold((r.stage_cycles, r.counters) for r in records)
    mem = reduce(MemStats.__iadd__, (r.mem for r in records), MemStats())
    tail = records[-1].tail_bound if records else _tail(1.0, one_norm(h.scaled(-1j * t)))
    if segments > 1:
        tail = math.expm1(segments * math.log1p(tail))
    return reduce(diag_matmul, repeat(u, segments - 1), u), records, stage, counters, mem, tail


def _fold(parts) -> tuple[StageCycles, dict]:
    """The summed stage cycles and counters (add_counters) of (stage, counters) pairs."""
    stage, counters = StageCycles(0, 0, 0, 0), {}
    for part, part_counters in parts:
        stage += part
        add_counters(counters, part_counters)
    return stage, counters


def _negative_zero(values: np.ndarray) -> bool:
    """Whether some float64 part of values is -0.0."""
    parts = values.view(np.float64)
    return bool(np.signbit(parts[parts == 0]).any())


def _csr_t(h: DiagMatrix, t: float):
    """(t Re H)^T in CSR, each row's column indices ascending; explicit zeros may go."""
    if not h.nnzd:
        return scipy.sparse.csr_array((h.dim, h.dim))
    q_t = scipy.sparse.diags_array([vec.real * t for _, vec in h.offset_views()],
                                   offsets=[-d for d in h.offsets], shape=(h.dim, h.dim)).tocsr()
    q_t.sort_indices()
    return q_t


def _dense_product(q_t, r_t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(R Q)^T = Q^T R^T from Q^T in CSR (_csr_t, or a block's rows of it) into
    out: each entry starts at +0.0 and adds its terms in ascending inner index,
    the order of spmspm.  It is scipy's kernel for q_t @ r_t, on a grid the
    chain reuses (_grid)."""
    out.fill(0.0)
    n = len(out)
    csr_matvecs(n, n, n, q_t.indptr, q_t.indices, q_t.data, r_t.reshape(-1), out.reshape(-1))
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
        self.shape, self.blocks, self.window = (n, n), [(0, n, (q_t, -q_t))], None

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
        for d in (np.flatnonzero(drop) + 1 - self.n).tolist():
            diagonal_view(grid.T, d)[:] = 0.0

    def load(self, grid: np.ndarray, m: DiagMatrix, part) -> None:
        """Write part (np.real or np.imag) of m's values into a zero grid."""
        for d, vec in m.offset_views():
            diagonal_view(grid.T, d)[:] = part(vec)

    def unload(self, grid: np.ndarray, offsets: np.ndarray, out: np.ndarray) -> None:
        """Write the grid's diagonals of these offsets into a zero packed buffer."""
        bounds = buffer_starts(self.n, offsets).tolist()
        for d, lo, hi in zip(offsets.tolist(), bounds, bounds[1:]):
            out[lo:hi] = diagonal_view(grid.T, d)

    def free(self) -> None:
        self.window = self.sheared = None


class _Rows(NamedTuple):
    """A block's rows of Q^T in CSR, columns numbered within the block."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


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
            rows = _Rows(indptr[end - m:end + 1] - first, indices[first:last], data[first:last])
            self.blocks.append((lo, m, (rows, rows._replace(data=-rows.data))))
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

    def load(self, grid: np.ndarray, m: DiagMatrix, part) -> None:
        held, slots = self._slots(m.offset_array)
        grid[held] = part(m.values)[slots]

    def unload(self, grid: np.ndarray, offsets: np.ndarray, out: np.ndarray) -> None:
        held, slots = self._slots(offsets)
        out[slots] = grid[held]

    def _slots(self, offsets: np.ndarray):
        """Which entries lie on these diagonals, and where each lies in their
        packed buffer: the diagonal's start plus min(row, col)."""
        start = np.full(2 * self.n - 1, -1)
        start[offsets + self.n - 1] = buffer_starts(self.n, offsets)[:-1]
        slots = start[self.at]
        held = slots >= 0
        slots += np.concatenate([np.minimum.outer(s, s).ravel() for s in self.states])
        return held, slots[held]

    def free(self) -> None:
        self.mag = None


class _DenseChain:
    """R_k^T, the grid its product goes into (spare) and U^T's real and
    imaginary planes as float64 grids of one layout (_layout): +0.0 where a
    matrix stores nothing, never -0.0.  Each matrix goes in, and U and a
    handed-back R_k out, through the layout's diagonal maps."""

    def __init__(self, t_k: DiagMatrix, k: int, u: DiagMatrix, q_t):
        """From T_k, whose component k mod 2 is R_k, U and Q^T (_csr_t)."""
        n = self.n = t_k.dim
        self.offsets = np.arange(1 - n, n)
        self.stored = np.isin(self.offsets, u.offset_array)  # U's diagonals, zero ones too
        self.live = t_k.offset_array  # R_k's diagonals, each holding a nonzero
        layout = self.layout = _layout(q_t)
        self.u = [np.zeros(layout.shape), np.zeros(layout.shape)]
        # each R grid with its blocks' m x m views, which _dense_product takes
        self.r_t, self.spare = (
            (grid, [grid.reshape(-1)[lo:lo + m * m].reshape(m, m) for lo, m, _ in layout.blocks])
            for grid in (_grid(layout.shape, 0), _grid(layout.shape, 2048)))
        for grid, m, part in ((self.u[0], u, np.real), (self.u[1], u, np.imag),
                              (self.r_t[0], t_k, (np.real, np.imag)[k % 2])):
            layout.load(grid, m, part)

    def take_u(self) -> DiagMatrix:
        """U with each diagonal that holds a nonzero (from_dense's); spends the chain."""
        self.r_t = self.spare = None  # R_k and the layout's scratch go first
        self.layout.free()
        offsets = self.offsets[self.stored]
        values = np.zeros(buffer_starts(self.n, offsets)[-1], COMPLEX)
        self.layout.unload(self.u[0], offsets, values.real)
        self.layout.unload(self.u[1], offsets, values.imag)
        return drop_zero_diagonals(DiagMatrix.packed(self.n, offsets, values))

    def hand_back(self, k: int) -> tuple[DiagMatrix, DiagMatrix]:
        """T_{k-1}, with R_{k-1} in component (k - 1) mod 2, and U (take_u), after
        step k failed; spends the chain."""
        values = np.zeros(buffer_starts(self.n, self.live)[-1])
        self.layout.unload(self.r_t[0], self.live, values)
        return DiagMatrix.packed(self.n, self.live, values * 1j ** ((k - 1) % 2)), self.take_u()

    def step(self, k: int):
        """R_k from R_{k-1}, the floor and U += T_k; returns the product's nonzero
        offsets, R_k's offsets, its nonzero count and the sum of its kept peaks.
        None, with R_{k-1} and U as they were, if the product is not finite (the
        packed chain raises) or its scaling underflows; DomainError, as the
        packed sum raises it, if U is not."""
        layout, (product, outs), (_, ins) = self.layout, self.spare, self.r_t
        for (_, _, q_ts), r_t, out in zip(layout.blocks, ins, outs):
            _dense_product(q_ts[k % 2], r_t, out)
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


def simulate_product(n: int, a_offsets, b_offsets, product_offsets, grid: GridSetup,
                     cache: SetAssocCache, tags: tuple[str, str, str] = ("A", "B", "C"),
                     trace=None, counted: dict | None = None):
    """One product of two dim-n matrices, given by their ascending offsets,
    through plan -> grid jobs -> cache; returns (summed stage cycles, summed
    counters, memory stats delta).

    The caller computes the product; product_offsets are its nonzero
    diagonals.  The plan must cover it, or VerificationError: the jobs'
    multiplies sum to the product's count, and some job touches each of those
    diagonals.  trace, when given, receives one dict per job in schedule
    order: its plan position and closed-form figures.  counted, when given,
    keeps each distinct product's plan, grid figures and job-line pattern
    (_count_product) for the next product with the same key; every product
    is still charged to the cache, in one charge_job call, and checked
    against its own offsets.
    """
    a_tag, b_tag, c_tag = tags
    counted = {} if counted is None else counted
    key = (n, np.asarray(a_offsets, np.int64).tobytes(),
           np.asarray(b_offsets, np.int64).tobytes(), grid)
    if key not in counted:
        counted[key] = _count_product(n, a_offsets, b_offsets, grid)
    jobs, results, stage, counters, touched, want, pattern = counted[key]
    mem_before = cache.stats.snapshot()
    deltas = charge_job(cache, pattern, a_tag, b_tag, c_tag)
    if trace is not None:
        for index, (job, result, mem) in enumerate(zip(jobs, results, deltas)):
            trace({"job": index, "window": job.window, "a_group": job.a_group.group_id,
                   "b_group": job.b_group.group_id, "rows": result.rows, "cols": result.cols,
                   "longest": list(result.longest), "cycles": dict(vars(result.stage)),
                   "counters": dict(result.counters), "mem": dict(vars(mem)),
                   "offsets": result.offsets})
    flush_product(cache, c_tag)
    multiplies = counters.get("multiplies", 0)
    missed = sorted(set(product_offsets) - touched)
    if multiplies != want or missed:
        raise VerificationError(
            f"plan coverage check failed: the jobs perform {multiplies} of the product's "
            f"{want} multiplies; output diagonals no job touches: {missed}")
    return stage, dict(counters), cache.stats.delta(mem_before)


def _count_product(n: int, a_offsets, b_offsets, grid: GridSetup):
    """The jobs of one product's plan, each job's RunResult, their summed stage
    cycles and counters, the output offsets they touch, the product's
    multiply count and the jobs' line pattern for charge_job: a pure
    function of n, the operands' offsets and grid."""
    plan = make_plan(n, a_offsets, b_offsets, grid.rows, grid.cols, cuts=grid.cuts,
                     a_group_size=grid.a_group_size, b_group_size=grid.b_group_size)
    results = [run_job(job.a_group.bounds, job.b_group.bounds, grid.feed, max_rows=grid.rows,
                       max_cols=grid.cols, interleave=grid.interleave) for job in plan.jobs]
    stage, counters = _fold((result.stage, result.counters) for result in results)
    touched = {d for result in results for d in result.offsets}
    pattern = tuple((job.a_group.group_id, job.b_group.group_id, tuple(result.offsets))
                    for job, result in zip(plan.jobs, results))
    return (plan.jobs, results, stage, counters, touched,
            multiply_count(a_offsets, b_offsets, n), pattern)
