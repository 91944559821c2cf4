import functools
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from scipy.sparse.csgraph import connected_components
from hypothesis import example, given, settings, strategies as st

from diagsim import diag_matmul, diagmat, gen_benchmark, hamsim, identity, memory, to_dense
from diagsim.dataflow import StageCycles
from diagsim.diagmat import COMPLEX, from_coo
from diagsim.errors import DomainError, VerificationError
from diagsim.hamsim import GridSetup, TaylorConfig, simulate_product, taylor_expm
from diagsim.memory import CacheConfig, MemStats, SetAssocCache

from conftest import (SEGMENT_CASES, check_segmented_u, csr_t_oracle, edge_matrices, same_bits,
                      split_h as _split)
from taylor_oracle import complex_chain


def dense_taylor_oracle(h: np.ndarray, t: float, terms: int) -> np.ndarray:
    """Independent dense reference: sum of (-i t H)^k / k! by repeated matmul."""
    m = np.asarray(h, dtype=complex) * (-1j * t)
    acc = np.eye(h.shape[0], dtype=complex)
    term = np.eye(h.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ m / k
        acc = acc + term
    return acc


@pytest.mark.parametrize("model", ["heisenberg", "tfim"])
def test_functional_series_matches_dense_series(model):
    h = gen_benchmark(model, 4)
    u, records = taylor_expm(h, TaylorConfig(t=0.7, terms=12))
    assert len(records) == 12
    want = dense_taylor_oracle(to_dense(h), 0.7, 12)
    assert np.linalg.norm(to_dense(u) - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("model", ["heisenberg", "tfim"])
def test_functional_series_is_bit_identical_to_per_diagonal_chain(model):
    h = gen_benchmark(model, 6)
    u, records = taylor_expm(h, TaylorConfig(t=0.5, eps=1e-8))
    want, _ = complex_chain(h, 0.5, terms=len(records))
    assert u.offsets == want.offsets
    assert u.values.tobytes() == want.values.tobytes()


def test_functional_chain_builds_no_diagonal_views(monkeypatch):
    h = gen_benchmark("heisenberg", 6)

    def refuse(*args):
        raise AssertionError("built a per-diagonal view")

    monkeypatch.setattr(diagmat, "Diagonal", refuse)
    u, _ = taylor_expm(h, TaylorConfig(t=0.5, eps=1e-8))
    diag_matmul(u, h)
    diag_matmul(h, u)


@pytest.mark.parametrize("model, qubits", [("heisenberg", 4), ("tfim", 5), ("maxcut", 6)])
def test_simulated_series_is_bit_identical_to_functional(model, qubits):
    # the grid model only counts: both paths take every product from diag_matmul
    h = gen_benchmark(model, qubits)
    grid = GridSetup(rows=4, cols=4)
    u_sim, sim = taylor_expm(h, TaylorConfig(t=0.5, eps=1e-8), grid)
    u_fun, fun = taylor_expm(h, TaylorConfig(t=0.5, eps=1e-8))
    assert u_sim.offsets == u_fun.offsets
    assert u_sim.values.tobytes() == u_fun.values.tobytes()
    assert [(r.nnzd, r.nnze) for r in sim] == [(r.nnzd, r.nnze) for r in fun]
    assert sum(r.counters["multiplies"] for r in sim) > 0


def test_iteration_nnze_counts_nonzero_entries():
    h = gen_benchmark("heisenberg", 4)
    _, records = taylor_expm(h, TaylorConfig(t=0.5, terms=4))
    t_k = identity(h.dim)
    m = h.scaled(-0.5j)
    for k, record in enumerate(records, start=1):
        t_k = diag_matmul(t_k, m).scaled(1.0 / k)
        assert record.nnze == np.count_nonzero(to_dense(t_k))


def test_plan_missing_an_output_diagonal_fails_coverage(monkeypatch):
    h = gen_benchmark("tfim", 4)
    real = hamsim.run_job

    def forgetful(*args, **kwargs):
        result = real(*args, **kwargs)
        return result._replace(offsets=[d for d in result.offsets if d != 0])

    monkeypatch.setattr(hamsim, "run_job", forgetful)
    grid = GridSetup(rows=8, cols=8)
    with pytest.raises(VerificationError, match=r"no job touches: \[0\]"):
        simulate_product(h.dim, h.offsets, h.offsets, diag_matmul(h, h).offsets, grid,
                         SetAssocCache(grid.cache))


def _count_calls(monkeypatch, targets) -> dict:
    """Count the calls to each (module, name), through a wrapper set on the module."""
    calls = dict.fromkeys((name for _, name in targets), 0)
    for module, name in targets:
        real = getattr(module, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


def test_each_chain_counts_its_own_distinct_products(monkeypatch):
    # Q and -Q share offsets and the band fills, so a chain repeats products;
    # no plan, grid figure or charged product outlives the taylor_expm call
    # that counted it
    h, cfg = gen_benchmark("heisenberg", 4), TaylorConfig(t=1.0, eps=1e-8)
    calls = _count_calls(monkeypatch, [(hamsim, "run_job"), (hamsim, "charge_job"),
                                       (memory, "_step_jobs")])
    grids = [GridSetup(rows=4, cols=4), GridSetup(rows=4, cols=4),
             GridSetup(rows=2, cols=8, cache=CacheConfig(sets=1, ways=3)), GridSetup(rows=4, cols=4)]
    runs = []
    for grid in grids:
        before = dict(calls)
        _, records = taylor_expm(h, cfg, grid)
        runs.append(tuple(calls[name] - before[name] for name in calls) + (records,))
    assert runs[0][:3] == runs[1][:3] == runs[3][:3]
    assert runs[0][2] < runs[0][1]  # fewer products stepped than charged
    for grid, (*_, records) in zip(grids, runs):
        _, fields = complex_chain(h, 1.0, eps=1e-8, grid=grid)
        assert [(r.stage_cycles, r.counters, r.mem) for r in records] == [f[3:] for f in fields]
    assert runs[2][-1] != runs[0][-1] == runs[3][-1]


def test_a_chain_starts_its_charge_memo_cold(monkeypatch):
    # two chains in one process on one grid step the same products: the
    # memo of charged products lives in the chain's cache, never longer
    h, cfg, grid = gen_benchmark("heisenberg", 6), TaylorConfig(t=1.0, eps=1e-8), GridSetup()
    calls = _count_calls(monkeypatch, [(hamsim, "charge_job"), (memory, "_step_jobs")])
    runs = []
    for _ in range(2):
        before = dict(calls)
        taylor_expm(h, cfg, grid)
        runs.append(tuple(calls[name] - before[name] for name in calls))
    assert runs[0] == runs[1]
    assert 0 < runs[0][1] < runs[0][0]


# the couplings' signs, t's sign and a short chain all reach U's signed zeros:
# forming (-i)^k P_k by a complex multiply gives -0.0 where the complex chain
# gives +0.0 in the zero component of a chain's last terms (terms 2, 3, 7 here)
REAL_CASES = [("heisenberg", 4, {}), ("heisenberg", 6, {"jx": 0.8, "jy": 0.8, "jz": -1.3}),
              ("heisenberg", 8, {}), ("tfim", 5, {}), ("tfim", 6, {"g": -0.7}), ("tfim", 8, {}),
              ("maxcut", 4, {}), ("maxcut", 8, {"seed": 3})]


@pytest.mark.parametrize("t, terms", [(0.5, None), (-0.3, None), (1.5, 2), (0.5, 3), (-0.8, 7)])
@pytest.mark.parametrize("model, qubits, couplings", REAL_CASES,
                         ids=[f"{m}-{q}-{i}" for i, (m, q, _) in enumerate(REAL_CASES)])
def test_real_chain_u_is_bit_identical_to_complex_chain(monkeypatch, model, qubits, couplings,
                                                        t, terms):
    h = gen_benchmark(model, qubits, **couplings)
    eps = None if terms else 1e-8
    grid = GridSetup(rows=16, cols=16)
    want, fields = complex_chain(h, t, terms, eps, grid)
    dense = _dense_calls(monkeypatch)
    for use_simulator in (False, True):
        cfg = TaylorConfig(t=t, terms=terms, eps=eps)
        u, records = taylor_expm(h, cfg, grid if use_simulator else None)
        assert [(r.nnzd, r.nnze, r.storage_scalars) for r in records] == [f[:3] for f in fields]
        assert same_bits(u, want)
    # the simulated leg charged every product as the packed chain plans it
    assert [(r.stage_cycles, r.counters, r.mem) for r in records] == [f[3:] for f in fields]
    if model == "maxcut":
        assert not dense  # a diagonal H keeps a diagonal term
    elif qubits == 8 and terms in (None, 7):
        assert dense  # the benchmark's inputs cross the switch


@pytest.mark.parametrize("t, terms", [(0.5, None), (-0.3, None), (1.5, 2), (-0.8, 7)])
@pytest.mark.parametrize("model, qubits, couplings", REAL_CASES,
                         ids=[f"{m}-{q}-{i}" for i, (m, q, _) in enumerate(REAL_CASES)])
def test_the_switch_point_changes_no_bit(monkeypatch, model, qubits, couplings, t, terms):
    # dense from k = 1 (a diagonal term too), at the chosen share, at half of
    # n^2, and never: U and every record field are the packed chain's
    h = gen_benchmark(model, qubits, **couplings)
    cfg = TaylorConfig(t=t, terms=terms, eps=None if terms else 1e-8)
    fills = {"never": 2.0, "k=1": 1e-9, "chosen": hamsim.DENSE_FILL, "half": 0.5}
    dense = _dense_calls(monkeypatch)
    for grid in (None, GridSetup(rows=16, cols=16)):
        runs, steps = {}, {}
        for name, fill in fills.items():
            monkeypatch.setattr(hamsim, "DENSE_FILL", fill)
            before = len(dense)
            runs[name] = taylor_expm(h, cfg, grid)
            steps[name] = len(dense) - before
        u, records = runs.pop("never")
        assert steps["never"] == 0 < steps["k=1"]
        for name, (got_u, got_records) in runs.items():
            assert same_bits(got_u, u), name
            assert got_records == records, name


def _dense_calls(monkeypatch) -> list:
    """The R^T shape of every block's dense product hamsim takes, as it runs."""
    calls, real = [], hamsim._dense_product

    def spy(out, blocks):
        calls.extend((args[0], args[2]) for args in blocks)  # csr_matvecs's m rows, m vectors
        return real(out, blocks)

    monkeypatch.setattr(hamsim, "_dense_product", spy)
    return calls


def _product_dtypes(monkeypatch) -> list:
    """The operand dtypes of every product hamsim takes, as it runs: the packed
    buffers of each diag_matmul, and Q_k^T and R^T of each dense product."""
    seen, packed, dense = [], hamsim.diag_matmul, hamsim._dense_product

    def packed_spy(a, b):
        seen.append((a.values.dtype, b.values.dtype))
        return packed(a, b)

    def dense_spy(out, blocks):
        seen.extend((args[5].dtype, args[6].dtype) for args in blocks)  # Q_k^T's data, R^T
        return dense(out, blocks)

    monkeypatch.setattr(hamsim, "diag_matmul", packed_spy)
    monkeypatch.setattr(hamsim, "_dense_product", dense_spy)
    return seen


@pytest.mark.parametrize("use_simulator", [False, True], ids=["functional", "simulated"])
def test_real_hamiltonian_multiplies_in_float64(monkeypatch, use_simulator):
    seen = _product_dtypes(monkeypatch)
    grid = GridSetup(rows=4, cols=4) if use_simulator else None
    u, _ = taylor_expm(gen_benchmark("tfim", 4), TaylorConfig(t=0.5, terms=6), grid)
    # the packed first product in complex128; from its term the chain is dense
    assert seen == [(COMPLEX, COMPLEX)] + [(np.float64, np.float64)] * 5
    assert u.values.dtype == COMPLEX


@pytest.mark.parametrize("simulated", [True, False], ids=["simulated", "functional"])
@pytest.mark.parametrize("segments", [2, 3])
@pytest.mark.parametrize("model, qubits", SEGMENT_CASES)
def test_expm_is_the_power_of_one_short_chain(model, qubits, segments, simulated):
    h, t, grid = gen_benchmark(model, qubits), 1.5, GridSetup() if simulated else None
    u, records, stage, counters, mem, _ = hamsim.expm(
        h, TaylorConfig(t=t, eps=hamsim.DEFAULT_EPS), grid, segments)
    step, chain = taylor_expm(
        h, TaylorConfig(t=t / segments, eps=hamsim.DEFAULT_EPS / segments), grid)
    check_segmented_u(u, step, h, t, segments)
    assert records == chain
    # the outer power is uncharged: the totals are the one chain's
    assert stage == StageCycles(*(sum(vars(r.stage_cycles)[key] for r in records)
                                  for key in vars(stage)))
    assert mem == MemStats(*(sum(vars(r.mem)[key] for r in records) for key in vars(mem)))
    keys = {key for r in records for key in r.counters}
    assert counters == {key: (max if key == "active_dpes" else sum)(
        r.counters.get(key, 0) for r in records) for key in keys}
    assert (counters.get("multiplies", 0) > 0) == simulated


@pytest.mark.parametrize("segments", [hamsim.SEGMENT_CAP + 1, 2**62])
def test_expm_rejects_more_segments_than_the_cap(segments, monkeypatch):
    # refused before the chain: a count of 2**62 would otherwise fold for ever
    monkeypatch.setattr(hamsim, "taylor_expm", None)
    with pytest.raises(DomainError, match=f"^--segments must be at most "
                                          f"{hamsim.SEGMENT_CAP}, got {segments}$"):
        hamsim.expm(gen_benchmark("tfim", 3), TaylorConfig(terms=2), segments=segments)


def test_expm_runs_the_cap_of_segments():
    h, cfg = gen_benchmark("tfim", 3), TaylorConfig(t=0.5, terms=4)
    u = hamsim.expm(h, cfg, segments=hamsim.SEGMENT_CAP)[0]
    step = taylor_expm(h, TaylorConfig(t=0.5 / hamsim.SEGMENT_CAP, terms=4))[0]
    want = step
    for _ in range(hamsim.SEGMENT_CAP - 1):
        want = diag_matmul(want, step)
    assert same_bits(u, want)


@pytest.mark.parametrize("segments", [0, -4])
def test_expm_rejects_fewer_than_one_segment(segments):
    with pytest.raises(DomainError, match=f"^--segments must be at least 1, got {segments}$"):
        hamsim.expm(gen_benchmark("tfim", 3), TaylorConfig(terms=2), segments=segments)


@pytest.mark.parametrize("use_simulator", [False, True], ids=["functional", "simulated"])
def test_complex_hamiltonian_keeps_the_complex_chain(monkeypatch, use_simulator):
    # X (x) Y has one Y factor, so imaginary entries; Z (x) I adds a real diagonal
    x, y, z = np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])
    dense = np.kron(x, y) + 0.5 * np.kron(z, np.eye(2))
    rows, cols = np.nonzero(dense)
    h = from_coo(4, rows, cols, dense[rows, cols])
    seen = _product_dtypes(monkeypatch)
    grid = GridSetup(rows=2, cols=2) if use_simulator else None
    u, _ = taylor_expm(h, TaylorConfig(t=0.7, eps=1e-12), grid)
    assert seen and all(pair == (COMPLEX, COMPLEX) for pair in seen)
    assert np.linalg.norm(to_dense(u) - scipy.linalg.expm(-0.7j * dense), 2) <= 1e-11
    assert same_bits(u, complex_chain(h, 0.7, eps=1e-12)[0])


def _raised(call) -> str:
    """The DomainError text call() raises."""
    with pytest.raises(DomainError) as raised:
        call()
    return str(raised.value)


def _on_a_split_h(test):
    """test's twin on the split H (_split): test runs as itself with layout
    "split", under its own marks, as test_..._on_a_split_h."""
    @functools.wraps(test)
    def twin(**kwargs):
        test(**kwargs, layout="split")

    twin.__name__ = twin.__qualname__ = f"{test.__name__}_on_a_split_h"
    return twin


def test_underflow_after_the_switch_hands_the_chain_back_to_the_packed_kernel(monkeypatch,
                                                                              layout="whole"):
    # entries near 1e-108 fill the band at once, and T_3's product holds
    # subnormals that the 1/3 scaling takes to zero (to -0.0 where negative)
    base = np.array([[1.0, -2.0, 0.5, 3.0], [-2.0, -1.0, 1.5, -0.5],
                     [0.5, 1.5, 2.0, -1.0], [3.0, -0.5, -1.0, 0.25]])
    h, blocks = _split(monkeypatch, base * 1e-108, layout)
    kinds, packed, dense = [], hamsim.diag_matmul, hamsim._dense_product
    monkeypatch.setattr(hamsim, "diag_matmul", lambda a, b: kinds.append("packed") or packed(a, b))
    monkeypatch.setattr(hamsim, "_dense_product", lambda out, blocks: kinds.extend(
        (args[0], args[2]) for args in blocks) or dense(out, blocks))
    u, records = taylor_expm(h, TaylorConfig(t=1.0, terms=6))
    want, fields = complex_chain(h, 1.0, terms=6)
    # k = 3 runs twice; its complex 1/3 scaling adds the +0.0 other part to each
    # -0.0 it makes, so T_3 holds none and k = 4 is dense again
    step = [(4, 4)] * blocks
    assert kinds == ["packed", *step, *step, "packed", *step]
    assert [(r.nnzd, r.nnze, r.storage_scalars) for r in records] == fields
    assert same_bits(u, want)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("signs", ["positive", "mixed"])
@pytest.mark.parametrize("use_simulator", [False, True])
def test_overflow_after_the_switch_raises_as_the_packed_chain_does(monkeypatch, signs,
                                                                   use_simulator, layout="whole"):
    # the band fills at k = 1; T_4's product overflows (to -inf, or with NaN
    # where signs mix), and the packed chain's product check names diagonal -3
    # of the whole H
    base = np.arange(1.0, 17.0).reshape(4, 4)
    if signs == "mixed":
        base[::2, 1::2] *= -1
    h, blocks = _split(monkeypatch, base, layout)
    want = _raised(lambda: complex_chain(h, 1e100, terms=6))
    assert layout == "split" or want == "diagonal -3 contains non-finite values"
    dense = _dense_calls(monkeypatch)
    got = _raised(lambda: taylor_expm(h, TaylorConfig(t=1e100, terms=6),
                                      GridSetup() if use_simulator else None))
    assert got == want
    assert dense == [(4, 4)] * blocks * 3  # k = 2, 3 and the overflowing k = 4


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("use_simulator", [False, True])
def test_sum_overflow_after_the_switch_raises_at_its_step(monkeypatch, use_simulator,
                                                          layout="whole"):
    # rows 0 and 5 of H couple at 1.7e308 to a block that squares to -1, so
    # every product stays finite while U's entries in those rows sum, like
    # sinh(1), past the float64 range at k = 3; the packed chain names
    # diagonal -4 of the whole H
    g = np.zeros((6, 6))
    g[1:5, 1:5] = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    g[0, 1:5] = g[5, 1:5] = 1.7e308
    h, blocks = _split(monkeypatch, g, layout)
    want = _raised(lambda: complex_chain(h, 1.0, terms=6))
    assert layout == "split" or want == "diagonal -4 contains non-finite values"
    dense = _dense_calls(monkeypatch)
    got = _raised(lambda: taylor_expm(h, TaylorConfig(t=1.0, terms=6),
                                      GridSetup() if use_simulator else None))
    assert got == want
    assert dense == [(6, 6)] * blocks * 2  # k = 2 and 3, as the packed chain stops at k = 3


@pytest.mark.parametrize("use_simulator", [False, True])
def test_cancellation_floor_drops_diagonals_after_the_switch(monkeypatch, use_simulator,
                                                             layout="whole"):
    # a band of width 5 fills half of n^2 at k = 1; couplings near 1e-20 at
    # offset +-12 put diagonals 11..15 into T_2's product (and 7..10 under
    # real ones) far below the floor of 1e-14 times its largest entry
    n = 16
    i, j = np.indices((n, n))
    g = np.where(abs(i - j) <= 5, np.cos(i + 2 * j) / (1.0 + abs(i - j)), 0.0)
    g = g + g.T
    g[abs(i - j) == 12] = 1e-20 * (1 + (i + j) % 3)[abs(i - j) == 12]
    h, blocks = _split(monkeypatch, g, layout)
    grid = GridSetup(rows=4, cols=4)
    want, fields = complex_chain(h, 0.7, eps=1e-12, grid=grid)
    dense = _dense_calls(monkeypatch)
    u, records = taylor_expm(h, TaylorConfig(t=0.7, eps=1e-12), grid if use_simulator else None)
    assert dense == [(n, n)] * blocks * (len(records) - 1)  # every step after k = 1 is dense
    if layout == "whole":
        assert [r.nnzd for r in records[:3]] == [11, 21, 31]
    assert [(r.nnzd, r.nnze, r.storage_scalars) for r in records] == [f[:3] for f in fields]
    if use_simulator:
        assert [(r.stage_cycles, r.counters, r.mem) for r in records] == [f[3:] for f in fields]
    assert same_bits(u, want)


test_underflow_after_the_switch_hands_the_chain_back_to_the_packed_kernel_on_a_split_h = \
    _on_a_split_h(test_underflow_after_the_switch_hands_the_chain_back_to_the_packed_kernel)
test_overflow_after_the_switch_raises_as_the_packed_chain_does_on_a_split_h = \
    _on_a_split_h(test_overflow_after_the_switch_raises_as_the_packed_chain_does)
test_sum_overflow_after_the_switch_raises_at_its_step_on_a_split_h = \
    _on_a_split_h(test_sum_overflow_after_the_switch_raises_at_its_step)
test_cancellation_floor_drops_diagonals_after_the_switch_on_a_split_h = \
    _on_a_split_h(test_cancellation_floor_drops_diagonals_after_the_switch)


@settings(max_examples=200)
@given(st.integers(1, 40), st.floats(0.0, 0.2), st.integers(0, 2**32 - 1))
def test_components_match_the_graph_oracle(n, density, seed):
    # a random pattern, not symmetric, with stored zeros: the weak components
    # of scipy's graph routine, each named by its least state
    rng = np.random.default_rng(seed)
    rows, cols = np.nonzero(rng.random((n, n)) < density)
    q_t = scipy.sparse.csr_array((rng.choice([0.0, 1.5, -2.0], len(rows)), (rows, cols)),
                                 shape=(n, n))
    count, label = connected_components(q_t, directed=True, connection="weak")
    least = np.full(count, n)
    np.minimum.at(least, label, np.arange(n))
    assert hamsim._components(q_t).tolist() == least[label].tolist()


@pytest.mark.parametrize("seed", range(4))
def test_block_layout_agrees_with_the_band_layout(monkeypatch, seed):
    # a sparse real matrix on three interleaved sets of states, loaded into
    # both layouts: each diagonal's peak, the zeroing of marked diagonals and
    # the packed values read back agree with the matrix, bit for bit
    rng = np.random.default_rng(seed)
    n, sets = 24, rng.integers(0, 3, 24)
    coupled = (sets[:, None] == sets) & (rng.random((n, n)) < 0.4)
    dense = np.where(coupled, rng.normal(size=(n, n)), 0.0)
    rows, cols = np.nonzero(dense)
    m = from_coo(n, rows, cols, dense[rows, cols])
    monkeypatch.setattr(hamsim, "MIN_BLOCK", 1)
    q_t = hamsim._csr_t(m, 1.0)
    blocks, band = hamsim._layout(q_t), hamsim._Band(q_t)
    assert isinstance(blocks, hamsim._Blocks) and len(blocks.blocks) >= 3
    drop = rng.random(2 * n - 1) < 0.3
    want = [np.abs(np.diagonal(dense, d)).max(initial=0.0) for d in range(1 - n, n)]
    for layout in (blocks, band):
        grid, slots = np.zeros(layout.shape), np.empty(layout.shape, np.int64)
        layout.load(m, [(grid, np.real)], slots)
        assert layout.peaks(grid).tolist() == want
        layout.zero(grid, drop)
        total = layout.slots(m.offset_array, slots)
        got = np.zeros(total + n)  # the n slots past the buffer take the other entries
        got[slots] = grid
        kept = np.repeat(~drop[m.offset_array + n - 1], np.diff(m.starts))
        assert got[:total].tobytes() == np.where(kept, m.values.real, 0.0).tobytes()
        assert not got[total:].any()


def _on_all_offsets(real: np.ndarray, imag: np.ndarray) -> diagmat.DiagMatrix:
    """The matrix of real + i imag, exactly, storing all 2n - 1 diagonals."""
    n = len(real)
    parts = [np.concatenate([np.diagonal(grid, d) for d in range(1 - n, n)])
             for grid in (real, imag)]
    return diagmat.DiagMatrix.packed(n, np.arange(1 - n, n),
                                     np.stack(parts, axis=-1).reshape(-1).view(COMPLEX))


ROUND_TRIPS = [*(("tfim", q) for q in range(1, 5)), *(("heisenberg", q) for q in range(2, 6)),
               *(("split", sizes) for sizes in [(1,), (1, 2), (3, 1), (1, 4)])]


def _round_trip_h(monkeypatch, family: str, size) -> tuple[diagmat.DiagMatrix, type]:
    """H and its dense layout, from dim 2 up: tfim's band; heisenberg's blocks,
    one per magnetization sector; a split grid, its components of these sizes
    and their copies each a block."""
    if family == "tfim":
        return gen_benchmark("tfim", size), hamsim._Band
    monkeypatch.setattr(hamsim, "MIN_BLOCK", 1)
    if family == "heisenberg":
        return gen_benchmark("heisenberg", size), hamsim._Blocks
    grid = scipy.linalg.block_diag(*(np.full((m, m), 0.5) + np.eye(m) for m in size))
    return _split(monkeypatch, grid, "split")[0], hamsim._Blocks


@pytest.mark.parametrize("family, size", ROUND_TRIPS)
@pytest.mark.parametrize("k", [1, 2])
def test_dense_chain_entry_and_exit_return_the_packed_bytes(monkeypatch, family, size, k):
    # T_k and U, random on H's components with +0.0 entries, go in; take_u
    # gives U back with the diagonals that hold a nonzero, as the packed sum
    # keeps them, and hand_back(k + 1) gives T_k back, bit for bit.  U goes in
    # as packed and storing every diagonal, some all zero: those between
    # blocks, and the corner one, zeroed
    h, kind = _round_trip_h(monkeypatch, family, size)
    n, q_t = h.dim, hamsim._csr_t(h, 0.5)
    label = hamsim._components(q_t)
    rng = np.random.default_rng(n + k)

    def on_blocks():
        coupled = (label[:, None] == label) & (rng.random((n, n)) < 0.7)
        return np.where(coupled, rng.normal(size=(n, n)), 0.0)

    re, im, r_k = on_blocks(), on_blocks(), on_blocks()
    re[n - 1, 0] = im[n - 1, 0] = 0.0
    u = _on_all_offsets(re, im)
    # R_k in component k mod 2, as hand_back writes it: R_k times 1j ** (k mod 2)
    t_k = diagmat.drop_zero_diagonals(_on_all_offsets(r_k, np.zeros((n, n))).scaled(1j ** (k % 2)))
    packed = diagmat.drop_zero_diagonals(u)
    assert u.nnzd == 2 * n - 1 > packed.nnzd
    for given in (u, packed):
        chain = hamsim._DenseChain(t_k, k, given, q_t)
        assert isinstance(chain.layout, kind)
        assert same_bits(chain.take_u(), packed)
        got_t, got_u = hamsim._DenseChain(t_k, k, given, q_t).hand_back(k + 1)
        assert same_bits(got_t, t_k) and same_bits(got_u, packed)


def test_dense_chains_take_no_diagonal_view(monkeypatch):
    # no per-diagonal walk into, inside or out of the dense chain: the
    # expm workloads' chains, tfim-5's and a split H that hands back
    def refuse(*args):
        raise AssertionError("took a diagonal view")

    assert not hasattr(hamsim, "diagonal_view")
    # the split H of the underflow test: its T_3 goes back to the packed chain
    base = np.array([[1.0, -2.0, 0.5, 3.0], [-2.0, -1.0, 1.5, -0.5],
                     [0.5, 1.5, 2.0, -1.0], [3.0, -0.5, -1.0, 0.25]])
    split, _ = _split(monkeypatch, base * 1e-108, "split")
    dense = _dense_calls(monkeypatch)
    monkeypatch.setattr(diagmat, "diagonal_view", refuse)
    eps = TaylorConfig(t=0.5, eps=1e-8)
    for h, cfg, grid in [(gen_benchmark("heisenberg", 8), eps, None),
                         (gen_benchmark("tfim", 8), eps, None),
                         (gen_benchmark("heisenberg", 6), TaylorConfig(t=1.0, eps=1e-8),
                          GridSetup(rows=16, cols=16)),
                         (gen_benchmark("tfim", 5), eps, GridSetup(rows=4, cols=4)),
                         (split, TaylorConfig(t=1.0, terms=6), None)]:
        before = len(dense)
        taylor_expm(h, cfg, grid)
        assert len(dense) > before


@pytest.mark.parametrize("model, qubits, t, grid, blocks", [
    ("heisenberg", 8, 0.5, None, 7), ("tfim", 8, 0.5, None, 1),  # expm-func's chains
    ("heisenberg", 6, 1.0, GridSetup(rows=16, cols=16), 4)])  # expm-sim's
def test_each_dense_step_calls_the_kernel_once_per_block(monkeypatch, model, qubits, t, grid,
                                                          blocks):
    kernels, steps = [], []
    kernel, product = hamsim.csr_matvecs, hamsim._dense_product
    monkeypatch.setattr(hamsim, "csr_matvecs", lambda *args: kernels.append(1) or kernel(*args))

    def counting(out, calls):
        before = len(kernels)
        product(out, calls)
        steps.append(len(kernels) - before)

    monkeypatch.setattr(hamsim, "_dense_product", counting)
    switched = _switches(monkeypatch)
    _, records = taylor_expm(gen_benchmark(model, qubits), TaylorConfig(t=t, eps=1e-8), grid)
    assert steps == [blocks] * (len(records) - switched[0]) and switched[0] < len(records)


# tracemalloc peaks of these chains as this test measures them, and as it
# measured them while the dense chain held U as one complex128 array and R_k
# in its band, and scipy copied R^T for each product; they spread by about
# 2 kB from run to run, and one more 256 x 256 float64 buffer is 512 kB.
# heisenberg's chain runs on its magnetization blocks, 0.196 of n^2
PEAKS = {"heisenberg": (1_949_000, 3_869_000), "tfim": (3_395_500, 4_270_500)}


def _chain_peak(h: diagmat.DiagMatrix, cfg: TaylorConfig) -> int:
    """The tracemalloc peak of a warm taylor_expm chain, in bytes."""
    taylor_expm(h, cfg)  # lazy imports and first-call caches
    tracemalloc.start()
    try:
        taylor_expm(h, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("model", PEAKS)
def test_dense_chain_peak_memory_does_not_grow(model):
    peak = _chain_peak(gen_benchmark(model, 8), TaylorConfig(t=0.5, eps=1e-8))
    now, before = PEAKS[model]
    assert peak <= min(now + 32_000, before)


def test_blocked_chain_peak_memory_at_ten_qubits():
    # 29.6 MB measured; the whole-matrix chain took 50.9 MB (48 n^2 bytes and U)
    assert _chain_peak(gen_benchmark("heisenberg", 10), TaylorConfig(t=0.5, eps=1e-8)) <= 40e6


def diags_csr_t(m, t: float):
    """(t Re m)^T as scipy builds it from the diagonals: diags_array at the
    negated offsets, tocsr, sort_indices (the builder before numpy's)."""
    if not m.nnzd:
        return scipy.sparse.csr_array((m.dim, m.dim))
    q_t = scipy.sparse.diags_array([vec.real * t for _, vec in m.offset_views()],
                                   offsets=[-d for d in m.offsets], shape=(m.dim, m.dim)).tocsr()
    q_t.sort_indices()
    return q_t


def _stored(n: int, offsets, values) -> diagmat.DiagMatrix:
    return diagmat.DiagMatrix.packed(n, offsets, np.array(values, COMPLEX))


@settings(max_examples=200)
@given(edge_matrices(), st.sampled_from([1.0, -0.5, 1e-300, 3.0]))
@example(_stored(1, [0], [0.0]), 1.0)  # dim 1, a stored zero
@example(_stored(1, [0], [-0.0 + 2j]), -0.5)  # -0.0 with an imaginary part
@example(_stored(1, [0], [-1.5 - 3j]), 3.0)
@example(_stored(1, [], []), 1.0)
@example(_stored(3, [-2, 0, 1], [0.0, 1 + 1j, 0.0, -0.0, 0.0, 2j]), 1.0)  # stored zeros only off 0
@example(_stored(4, [-1, 3], [1e-300, -2.0, 0j, 5.0]), 1e-300)  # underflow to +-0.0 drops them
def test_csr_transpose_matches_the_coordinate_oracle(m, t):
    # the same indptr, indices and data as scipy's diagonal builder, stored
    # zeros (-0.0 too) dropped; with every stored entry kept by the
    # coordinate oracle, the same once the zeros are gone, which add nothing
    # to a dense product's sums (test_dense_product_matches_pair_loop_bit_for_bit)
    got, scipy_t, want = hamsim._csr_t(m, t), diags_csr_t(m, t), csr_t_oracle(m, t)
    assert got.shape == want.shape and got.dtype == np.float64 and got.has_sorted_indices
    for name in ("indptr", "indices", "data"):
        assert getattr(got, name).dtype == getattr(scipy_t, name).dtype, name
        assert getattr(got, name).tobytes() == getattr(scipy_t, name).tobytes(), name
    assert not (got.data == 0).any()
    want.eliminate_zeros()
    assert got.indptr.tolist() == want.indptr.tolist()
    assert got.indices.tolist() == want.indices.tolist()
    assert got.data.tobytes() == want.data.tobytes()


def test_a_narrow_term_never_turns_dense(monkeypatch):
    # maxcut's H is diagonal, so every term is; dense, U alone would take 512 MB
    def refuse(*args):
        raise AssertionError("a diagonal term turned dense")

    monkeypatch.setattr(hamsim, "_DenseChain", refuse)
    h = gen_benchmark("maxcut", 12)
    _, records = taylor_expm(h, TaylorConfig(t=0.5, terms=12))
    assert len(records) == 12 and all(r.nnzd == 1 for r in records)


def _switches(monkeypatch) -> list:
    """The step k of every switch to the dense chain, as the chain runs."""
    seen, real = [], hamsim._DenseChain
    monkeypatch.setattr(hamsim, "_DenseChain",
                        lambda t_k, k, *rest: seen.append(k) or real(t_k, k, *rest))
    return seen


@pytest.mark.parametrize("model, qubits, t, k", [
    ("heisenberg", 8, 0.5, 1), ("tfim", 8, 0.5, 1),  # the expm-func benchmark's chains
    ("heisenberg", 10, 0.5, 2), ("tfim", 10, 0.5, 2),
    ("heisenberg", 6, 1.0, 1)])  # expm-sim's
def test_a_growing_term_turns_dense_at_its_share(monkeypatch, model, qubits, t, k):
    # T_1 grows from I to 5.5% (heisenberg-8) and 5.9% (tfim-8) of n^2, over
    # DENSE_FILL; at 10 qubits it holds 1.8-1.9%, so T_2 switches
    switched = _switches(monkeypatch)
    taylor_expm(gen_benchmark(model, qubits), TaylorConfig(t=t, eps=1e-8))
    assert switched == [k]


def _shift(n: int) -> diagmat.DiagMatrix:
    """The nilpotent shift: ones on diagonal 1, so T_k holds diagonal k alone."""
    return from_coo(n, np.arange(n - 1), np.arange(1, n), np.ones(n - 1))


@pytest.mark.parametrize("h", [*(gen_benchmark("maxcut", q) for q in range(4, 9)), _shift(16)],
                         ids=[*(f"maxcut-{q}" for q in range(4, 9)), "shift-16"])
def test_a_term_that_stops_growing_never_turns_dense(monkeypatch, h):
    # a diagonal term of 4 or 5 qubits holds 1/n of n^2 and the shift's T_1
    # (n - 1) / n^2, each between DENSE_FILL and STALLED times it, but none
    # grows from I
    switched = _switches(monkeypatch)
    _, records = taylor_expm(h, TaylorConfig(t=0.5, terms=12))
    assert switched == [] and all(r.nnzd == 1 for r in records)
    if h.dim <= 32:
        share = records[0].storage_scalars / h.dim ** 2
        assert hamsim.DENSE_FILL <= share < hamsim.STALLED * hamsim.DENSE_FILL


def _band(n: int, width: int) -> diagmat.DiagMatrix:
    """A real symmetric band: entries within width of the diagonal."""
    i, j = np.indices((n, n))
    rows, cols = np.nonzero(abs(i - j) <= width)
    return from_coo(n, rows, cols, np.cos(rows + cols) + 2.0 * (rows == cols))


@pytest.mark.parametrize("n, width, t, k", [
    (128, 1, 0.5, [1]), (256, 1, 0.25, []), (256, 1, 0.5, [13]), (512, 1, 2.0, []),
    (256, 2, 0.5, [7]), (1024, 2, 0.5, [])])
def test_a_band_that_grows_by_diagonals_keeps_the_stalled_share(monkeypatch, n, width, t, k):
    # T_k's band widens by 2 width diagonals a step, less than doubling from
    # k = 2 on, so from there it needs STALLED times DENSE_FILL as every term
    # did before: a dense grid costs more than its few diagonals.  Only T_1,
    # three or five times I, may switch at DENSE_FILL
    switched = _switches(monkeypatch)
    _, records = taylor_expm(_band(n, width), TaylorConfig(t=t, eps=1e-8))
    assert switched == k
    scalars = [n] + [r.storage_scalars for r in records]
    assert all(now < hamsim.GROWING * before for before, now in zip(scalars[1:], scalars[2:]))


def test_benchmark_chains_start_no_thread(monkeypatch):
    # the expm workloads' chains (heisenberg-8 and tfim-8 at t = 0.5,
    # heisenberg-6 at t = 1 on a 16 x 16 grid) and tfim-9's, whose dense grids
    # hold 2^18 entries, run on this thread alone; simulate and io-roundtrip
    # run no chain
    def refuse(thread):
        raise AssertionError(f"a chain started {thread}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    for model, qubits, t, grid in [("heisenberg", 8, 0.5, None), ("tfim", 8, 0.5, None),
                                   ("heisenberg", 6, 1.0, GridSetup(rows=16, cols=16)),
                                   ("tfim", 9, 0.5, None)]:
        taylor_expm(gen_benchmark(model, qubits), TaylorConfig(t=t, eps=1e-8), grid)
