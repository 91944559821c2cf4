"""The grid model: closed-form jobs (dataflow.run_job) and the per-cycle
stepper (tests/stepper.py) they are held to."""

import numpy as np
import pytest

from diagsim import diag_matmul, identity, multiply_count, to_dense
from diagsim.blocking import merge_outputs
from diagsim.cli import main
from diagsim.dataflow import FeedConfig, longest_diagonal, predict_cycles, run_job
from diagsim.diagio import save_matrix
from diagsim.errors import GridCapacityError

from conftest import minkowski, pair_products, rand_matrix, whole_segments
from stepper import DpeGrid, GridRun, step_job


def run_whole(a, b, feed=FeedConfig(), **kw):
    """The closed-form figures of one job holding every diagonal whole."""
    return run_job(whole_segments(a), whole_segments(b), feed, **kw)


def step_whole(a, b, feed=FeedConfig(), **kw):
    """The same job stepped cycle by cycle."""
    return step_job(a, b, whole_segments(a), whole_segments(b), feed, **kw)


def grid_whole(a, b, feed=FeedConfig(), **kw):
    """The stepper's grid for the same job."""
    return DpeGrid(a, b, whole_segments(a), whole_segments(b), feed, **kw)


def expected_multiplies(a, b):
    """Per-element multiply triples implied by the functional overlap ranges."""
    triples = []
    for da, db, rng, prod in pair_products(a, b):
        dc = da + db
        for off, r in enumerate(range(rng.r_lo, rng.r_hi + 1)):
            triples.append((r, r + dc, complex(prod[off])))
    return sorted(triples, key=lambda t: (t[0], t[1], t[2].real, t[2].imag))


class TestBuildGrid:
    def test_grid_sized_to_segments(self):
        rng = np.random.default_rng(149)
        a = rand_matrix(rng, 5, offsets=[-1, 0, 1])
        b = rand_matrix(rng, 5, offsets=[-1, 0, 1])
        grid = grid_whole(a, b)
        assert (grid.rows, grid.cols) == (3, 3)
        res = run_whole(a, b)
        assert (res.rows, res.cols) == (3, 3)

    def test_single_pair_gives_unit_grid(self):
        m = identity(4)
        grid = grid_whole(m, m)
        assert (grid.rows, grid.cols) == (1, 1)
        res = run_whole(m, m)
        assert (res.rows, res.cols) == (1, 1)

    def test_pipelined_interleave(self):
        m = identity(8)
        grid = grid_whole(m, m, interleave=4)
        assert (grid.rows, grid.cols) == (1, 4)
        assert grid.a_lengths() == [2, 2, 2, 2]
        res = run_whole(m, m, interleave=4)
        assert (res.rows, res.cols, res.longest) == (1, 4, ("B", 8, 1))
        assert res.counters["active_dpe_cycles"] == 4 * 8

    def test_interleave_requires_single_diagonal(self):
        rng = np.random.default_rng(151)
        a = rand_matrix(rng, 6, k=2)
        with pytest.raises(GridCapacityError):
            grid_whole(a, a, interleave=4)
        with pytest.raises(GridCapacityError):
            run_whole(a, a, interleave=4)

    def test_interleave_wider_than_segment_rejected(self, tmp_path):
        # empty interleave columns used to add cells and stagger cycles: on
        # this one-multiply job interleave 1, 2, 4 reported totals 7, 8, 10
        rng = np.random.default_rng(152)
        a = rand_matrix(rng, 6, offsets=[5])
        b = rand_matrix(rng, 6, offsets=[0])
        res = run_whole(a, b)
        assert res.stage.total == 7
        assert (res.counters["multiplies"], res.counters["active_dpes"]) == (1, 1)
        for interleave in (2, 4):
            with pytest.raises(GridCapacityError):
                run_whole(a, b, interleave=interleave)
        save_matrix(a, str(tmp_path / "a.diaq"))
        save_matrix(b, str(tmp_path / "b.diaq"))
        argv = ["simulate", str(tmp_path / "a.diaq"), str(tmp_path / "b.diaq"),
                "--out", str(tmp_path / "r.json"), "--interleave"]
        assert main(argv + ["1"]) == 0
        assert main(argv + ["2"]) == 2

    def test_capacity_enforced(self):
        rng = np.random.default_rng(157)
        a = rand_matrix(rng, 8, k=5)
        with pytest.raises(GridCapacityError):
            grid_whole(a, a, max_cols=4)
        for limits in ({"max_cols": 4}, {"max_rows": 4}):
            with pytest.raises(GridCapacityError):
                run_whole(a, a, **limits)
        assert run_whole(a, a, max_rows=5, max_cols=5).counters["active_dpes"] == 25

    def test_feed_order_controls_columns(self):
        rng = np.random.default_rng(163)
        a = rand_matrix(rng, 6, offsets=[-2, 1, 3])
        b = rand_matrix(rng, 6, offsets=[-1, 2])
        grid = grid_whole(a, b, FeedConfig())
        assert [s.offset for s in grid.a_streams] == [-2, 1, 3]      # ascending
        assert [s.offset for s in grid.b_streams] == [2, -1]         # descending
        flipped = grid_whole(a, b, FeedConfig("descending", "ascending"))
        assert [s.offset for s in flipped.a_streams] == [3, 1, -2]
        assert [s.offset for s in flipped.b_streams] == [-1, 2]
        # the longest diagonal (B's -1, 5 long) sits where each feed order puts it
        assert run_whole(a, b).longest == ("B", 5, 2)
        assert run_whole(a, b, FeedConfig("descending", "ascending")).longest == ("B", 5, 1)


class TestStepSemantics:
    def test_identity_unit_grid_one_multiply_per_cycle(self):
        m = identity(5)
        run = GridRun(grid_whole(m, m))
        fired = []
        while not run.finished:
            fired.append(len(run.step()))
        assert fired == [1, 1, 1, 1, 1, 0]

    def test_matched_pair_multiplies_and_carries_outer_indices(self):
        rng = np.random.default_rng(167)
        a = rand_matrix(rng, 4, offsets=[1])
        b = rand_matrix(rng, 4, offsets=[-1])
        res = step_whole(a, b, collect_products=True)
        grid = grid_whole(a, b)
        assert res.counters["multiplies"] == len(res.products)
        for p in res.products:
            assert p.j - p.i == grid.d_c(0, 0) == 0  # offset sum of the cell's feeds

    def test_mismatch_retains_larger_index(self):
        # A carries column indices {3}, B row indices {0..2}: every B element
        # passes through while the A operand is retained, so no products fire
        rng = np.random.default_rng(173)
        a = rand_matrix(rng, 4, offsets=[3])
        b = rand_matrix(rng, 4, offsets=[1])
        res = step_whole(a, b, collect_products=True)
        assert res.counters["multiplies"] == 0
        assert res.products == []
        closed = run_whole(a, b)
        assert (closed.counters, closed.offsets) == (res.counters, [])

    def test_late_partner_still_matches(self):
        # the lone operand must wait while the opposing stream is live:
        # every overlap pair fires even when windows are skewed
        rng = np.random.default_rng(179)
        a = rand_matrix(rng, 9, offsets=[0])
        b = rand_matrix(rng, 9, offsets=[-7])
        res = step_whole(a, b, collect_products=True)
        assert res.counters["multiplies"] == multiply_count([0], [-7], 9) == 2
        assert run_whole(a, b).counters == res.counters


class TestRunJob:
    def test_walkthrough_case(self):
        rng = np.random.default_rng(181)
        a = rand_matrix(rng, 5, offsets=[-1, 0, 1])
        b = rand_matrix(rng, 5, offsets=[-1, 0, 1])
        res = run_whole(a, b)
        assert res.stage.total == 3 + 3 + 5 - 1 == 10
        assert res.stage.preload == 5
        assert res.counters["dyn_preload"] == 5

    def test_unit_grid_full_diagonals(self):
        for n in (2, 5, 17):
            m = identity(n)
            res = run_whole(m, m)
            assert res.stage.total == n + 1

    def test_multiply_multiset_matches_functional_ranges(self):
        rng = np.random.default_rng(191)
        for _ in range(25):
            n = int(rng.integers(2, 40))
            a = rand_matrix(rng, n)
            b = rand_matrix(rng, n)
            res = step_whole(a, b, collect_products=True)
            got = sorted(((p.i, p.j, p.value) for p in res.products),
                         key=lambda t: (t[0], t[1], t[2].real, t[2].imag))
            want = expected_multiplies(a, b)
            assert len(got) == len(want)
            for (gi, gj, gv), (wi, wj, wv) in zip(got, want):
                assert (gi, gj) == (wi, wj)
                assert abs(gv - wv) <= 1e-12 * max(abs(wv), 1.0)

    def test_accumulated_output_matches_kernel(self):
        rng = np.random.default_rng(193)
        for _ in range(20):
            n = int(rng.integers(2, 48))
            a = rand_matrix(rng, n)
            b = rand_matrix(rng, n)
            res = step_whole(a, b)
            got = to_dense(merge_outputs(n, [res.bank.vectors]))
            want = to_dense(diag_matmul(a, b))
            scale = max(np.linalg.norm(want), 1e-300)
            assert np.linalg.norm(got - want) / scale < 1e-12

    def test_cycle_model_exactness_randomized(self):
        rng = np.random.default_rng(197)
        feeds = [FeedConfig(a, b) for a in ("ascending", "descending")
                 for b in ("ascending", "descending")]
        for trial in range(60):
            n = int(rng.integers(2, 257))
            ka = int(rng.integers(1, 13))
            kb = int(rng.integers(1, 13))
            a = rand_matrix(rng, n, k=min(ka, 2 * n - 1))
            b = rand_matrix(rng, n, k=min(kb, 2 * n - 1))
            res = run_whole(a, b, feed=feeds[trial % 4])
            length = max(n - abs(d) for d in a.offsets + b.offsets)
            assert res.stage.total == a.nnzd + b.nnzd + length - 1
            assert res.counters["dyn_preload"] == a.nnzd + b.nnzd - 1

    def test_interleaved_single_diagonal_correctness(self):
        rng = np.random.default_rng(199)
        a = rand_matrix(rng, 16, offsets=[0])
        b = rand_matrix(rng, 16, offsets=[0])
        res = step_whole(a, b, interleave=4)
        got = to_dense(merge_outputs(16, [res.bank.vectors]))
        assert np.allclose(got, to_dense(diag_matmul(a, b)))
        assert res.counters["multiplies"] == 16
        closed = run_whole(a, b, interleave=4)
        assert (closed.stage, closed.counters) == (res.stage, res.counters)

    def test_total_scales_linearly_with_inputs(self):
        rng = np.random.default_rng(211)
        offs = sorted(rng.choice(np.arange(-15, 16), size=5, replace=False).tolist())
        totals = {}
        for n in (64, 128, 256, 512):
            a = rand_matrix(rng, n, offsets=offs)
            b = rand_matrix(rng, n, offsets=offs)
            totals[n] = run_whole(a, b).stage.total
        assert totals[512] - totals[256] == 256
        assert totals[256] - totals[128] == 128


class TestPredictCycles:
    def test_reference_substitution(self):
        assert predict_cycles(3, 3, 5, 2).total == 10

    def test_degenerate_grid(self):
        stage = predict_cycles(1, 1, 1, 1)
        assert stage.total == 2
        assert stage.preload == 1

    def test_prediction_matches_run(self):
        rng = np.random.default_rng(223)
        for _ in range(30):
            n = int(rng.integers(2, 128))
            a = rand_matrix(rng, n, k=int(rng.integers(1, 7)))
            b = rand_matrix(rng, n, k=int(rng.integers(1, 7)))
            grid = grid_whole(a, b)
            stepped = step_whole(a, b).stage.total
            assert stepped == predict_cycles(
                grid.rows, grid.cols,
                *longest_diagonal(grid.a_lengths(), grid.b_lengths())[1:]).total
            assert run_whole(a, b).stage.total == stepped

    def test_stage_split_can_go_negative(self):
        # a short early diagonal finishes feeding before the preload wave
        stage = predict_cycles(4, 4, 2, 1)
        assert stage.compute < 0
        assert stage.preload + stage.compute + stage.popout == stage.total


class TestMinkowskiMapping:
    def test_both_ascending_anti_diagonals_share_output(self):
        rng = np.random.default_rng(227)
        a = rand_matrix(rng, 8, offsets=[-1, 0, 1])
        b = rand_matrix(rng, 8, offsets=[-1, 0, 1])
        grid = grid_whole(a, b, FeedConfig("ascending", "ascending"))
        for r in range(3):
            for c in range(3):
                for r2 in range(3):
                    for c2 in range(3):
                        if r + c == r2 + c2:
                            assert grid.d_c(r, c) == grid.d_c(r2, c2)

    def test_mixed_orders_diagonals_share_output(self):
        rng = np.random.default_rng(229)
        a = rand_matrix(rng, 8, offsets=[-1, 0, 1])
        b = rand_matrix(rng, 8, offsets=[-1, 0, 1])
        grid = grid_whole(a, b, FeedConfig("ascending", "descending"))
        for r in range(3):
            for c in range(3):
                for r2 in range(3):
                    for c2 in range(3):
                        if r - c == r2 - c2:
                            assert grid.d_c(r, c) == grid.d_c(r2, c2)

    def test_single_offsets_map_to_zero(self):
        m = identity(4)
        grid = grid_whole(m, m)
        assert grid.d_c(0, 0) == 0

    def test_products_respect_offset_sum(self):
        rng = np.random.default_rng(233)
        a = rand_matrix(rng, 12, k=4)
        b = rand_matrix(rng, 12, k=4)
        res = step_whole(a, b, collect_products=True)
        grid = grid_whole(a, b)
        cells = {grid.d_c(r, c) for r in range(grid.rows) for c in range(grid.cols)}
        assert cells == set(minkowski(a.offsets, b.offsets))
        assert {p.j - p.i for p in res.products} <= cells
        assert run_whole(a, b).offsets == sorted({p.j - p.i for p in res.products})


class TestUtilization:
    def test_active_cells_equal_segment_product(self):
        rng = np.random.default_rng(239)
        a = rand_matrix(rng, 16, k=3)
        b = rand_matrix(rng, 16, k=5)
        res = run_whole(a, b, max_rows=32, max_cols=32)
        assert res.counters["active_dpes"] == a.nnzd * b.nnzd

    def test_monotone_indices_in_trace(self):
        rng = np.random.default_rng(241)
        a = rand_matrix(rng, 10, k=3)
        b = rand_matrix(rng, 10, k=3)
        events = []
        step_whole(a, b, trace=events.append)
        seen_j = {}
        seen_i = {}
        for evt in events:
            key = tuple(evt["dpe"])
            if evt["action"] == "transit_a":
                assert seen_j.get(key, -1) <= evt["j"]
                seen_j[key] = evt["j"]
            elif evt["action"] == "transit_b":
                assert seen_i.get(key, -1) <= evt["i"]
                seen_i[key] = evt["i"]
