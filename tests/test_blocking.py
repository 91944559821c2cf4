"""The blocking planner: row/col windows, diagonal groups and job order, held
to the per-diagonal oracle in tests/blocking_oracle.py and to the kernel."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from diagsim import DiagMatrix, diag_matmul, to_dense
from diagsim.blocking import default_cuts, make_plan, merge_outputs
from diagsim.errors import PlanError

from blocking_oracle import job_product, plan_jobs
from conftest import rand_matrix


def blocked_product(a, b, plan):
    return merge_outputs(a.dim, [job_product(a, b, j.a_group.bounds, j.b_group.bounds)[0]
                                 for j in plan.jobs])


def lengths(bounds):
    return (bounds[:, 2] - bounds[:, 1] + 1).tolist()


def window_bounds(plan, window, side):
    """The bounds rows of one operand's groups in one window, groups in id order."""
    groups = {getattr(j, side).group_id: getattr(j, side).bounds
              for j in plan.jobs if j.window == window}
    return np.concatenate([groups[g] for g in sorted(groups)])


@st.composite
def plan_cases(draw):
    """n, A and B offsets, cuts, grid rows and columns, and group sizes."""
    n = draw(st.integers(1, 40))
    offsets = st.lists(st.integers(-(n - 1), n - 1), max_size=8, unique=True)
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=4))) if n > 1 else []
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    a_gs = draw(st.none() | st.integers(1, cols))
    b_gs = draw(st.none() | st.integers(1, rows))
    return n, draw(offsets), draw(offsets), cuts, rows, cols, a_gs, b_gs


@settings(max_examples=200)
@given(plan_cases())
@example((5, [4], [-4], [3], 1, 1, None, None))  # both diagonals miss window 0
def test_plan_matches_per_diagonal_oracle(case):
    """make_plan's jobs equal the per-diagonal clip's: windows, group ids and
    bounds rows, with windows that leave a diagonal no row among them."""
    n, a_offs, b_offs, cuts, rows, cols, a_gs, b_gs = case
    a = rand_matrix(np.random.default_rng(n), n, offsets=sorted(a_offs))
    b = rand_matrix(np.random.default_rng(n + 1), n, offsets=sorted(b_offs))
    plan = make_plan(a.dim, a.offsets, b.offsets, grid_rows=rows, grid_cols=cols, cuts=cuts,
                     a_group_size=a_gs, b_group_size=b_gs)
    got = [(j.window, j.a_group.group_id, j.b_group.group_id,
            j.a_group.bounds.tolist(), j.b_group.bounds.tolist()) for j in plan.jobs]
    assert got == plan_jobs(a, b, cuts, a_gs or cols, b_gs or rows)
    for job in plan.jobs:
        assert job.a_group.bounds.dtype == job.b_group.bounds.dtype == np.int64
        # no empty group, no empty segment: dataflow.run_job relies on both
        for bounds in (job.a_group.bounds, job.b_group.bounds):
            assert len(bounds) >= 1 and (bounds[:, 1] <= bounds[:, 2]).all()


class TestPartitionRowcol:
    """make_plan's row/col split: A by columns and B by rows at the cuts."""

    def test_five_by_five_cut(self):
        rng = np.random.default_rng(79)
        a = rand_matrix(rng, 5, offsets=[-1, 0, 1])
        b = rand_matrix(rng, 5, offsets=[-1, 0, 1])
        plan = make_plan(a.dim, a.offsets, b.offsets, grid_rows=64, grid_cols=64, cuts=[3])
        assert sorted({j.window for j in plan.jobs}) == [0, 1]
        # windows of width 3 and 2 bound the segment lengths
        for window, width in ((0, 3), (1, 2)):
            assert max(lengths(window_bounds(plan, window, "a_group"))) == width
            assert max(lengths(window_bounds(plan, window, "b_group"))) == width

    def test_no_cuts_single_group(self):
        rng = np.random.default_rng(83)
        a = rand_matrix(rng, 6)
        b = rand_matrix(rng, 6)
        plan = make_plan(a.dim, a.offsets, b.offsets, grid_rows=64, grid_cols=64, cuts=[])
        assert len(plan.jobs) == 1
        bounds = plan.jobs[0].a_group.bounds
        assert bounds[:, 0].tolist() == list(a.offsets)
        assert lengths(bounds) == [6 - abs(d) for d in a.offsets]

    def test_window_without_rows_drops_the_diagonal(self):
        # A's offset 4 holds column 4 only and B's offset -4 row 4 only, so
        # window 0 (indices 0-2) leaves each with no row and schedules nothing
        rng = np.random.default_rng(88)
        a = rand_matrix(rng, 5, offsets=[-1, 4])
        b = rand_matrix(rng, 5, offsets=[-4, 2])
        plan = make_plan(a.dim, a.offsets, b.offsets, grid_rows=4, grid_cols=4, cuts=[3])
        assert window_bounds(plan, 0, "a_group").tolist() == [[-1, 1, 3]]
        assert window_bounds(plan, 0, "b_group").tolist() == [[2, 0, 2]]
        assert window_bounds(plan, 1, "a_group").tolist() == [[-1, 4, 4], [4, 0, 0]]
        assert window_bounds(plan, 1, "b_group").tolist() == [[-4, 4, 4]]

    def test_bad_cuts(self):
        rng = np.random.default_rng(89)
        a = rand_matrix(rng, 6)
        for cuts in ([3, 2], [0], [6]):
            with pytest.raises(PlanError):
                make_plan(a.dim, a.offsets, a.offsets, grid_rows=4, grid_cols=4, cuts=cuts)

    def test_reassembly_matches_unblocked(self):
        rng = np.random.default_rng(97)
        for _ in range(15):
            n = int(rng.integers(4, 65))
            a = rand_matrix(rng, n)
            b = rand_matrix(rng, n)
            n_cuts = int(rng.integers(1, 4))
            cuts = sorted(rng.choice(np.arange(1, n), size=n_cuts, replace=False).tolist())
            plan = make_plan(a.dim, a.offsets, b.offsets, grid_rows=64, grid_cols=64, cuts=cuts)
            got = to_dense(blocked_product(a, b, plan))
            want = to_dense(diag_matmul(a, b))
            scale = max(np.linalg.norm(want), 1e-300)
            assert np.linalg.norm(got - want) / scale < 1e-12


class TestPartitionDiagonals:
    """make_plan's diagonal groups: ascending offsets chunked to the group size."""

    def test_reference_group_arithmetic(self):
        offsets = np.arange(-391, 392)
        m = DiagMatrix.packed(1024, offsets, np.ones(int((1024 - np.abs(offsets)).sum()),
                                                     dtype=complex))
        assert m.nnzd == 783
        plan = make_plan(m.dim, m.offsets, m.offsets, grid_rows=64, grid_cols=64)
        groups = {j.a_group.group_id: j.a_group.bounds for j in plan.jobs}
        assert len(groups) == 13
        assert max(len(g) for g in groups.values()) == 64
        assert np.concatenate([groups[g] for g in range(13)])[:, 0].tolist() == offsets.tolist()

    def test_single_group_when_size_covers(self):
        rng = np.random.default_rng(101)
        m = rand_matrix(rng, 12, k=5)
        plan = make_plan(m.dim, m.offsets, m.offsets, grid_rows=8, grid_cols=8, b_group_size=8)
        assert {j.b_group.group_id for j in plan.jobs} == {0}

    def test_bad_group_size(self):
        rng = np.random.default_rng(102)
        a = rand_matrix(rng, 8, k=2)
        for sizes in ({"a_group_size": 0}, {"b_group_size": 0}, {"a_group_size": -1}):
            with pytest.raises(PlanError):
                make_plan(a.dim, a.offsets, a.offsets, grid_rows=2, grid_cols=2, **sizes)


class TestMakePlan:
    def test_job_order_is_b_major(self):
        rng = np.random.default_rng(103)
        a = rand_matrix(rng, 8, k=4)
        b = rand_matrix(rng, 8, k=4)
        plan = make_plan(a.dim, a.offsets, b.offsets, grid_rows=2, grid_cols=2)
        pairs = [(j.a_group.group_id, j.b_group.group_id) for j in plan.jobs]
        assert pairs == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_single_group_single_job(self):
        rng = np.random.default_rng(107)
        a = rand_matrix(rng, 8, k=2)
        b = rand_matrix(rng, 8, k=2)
        plan = make_plan(a.dim, a.offsets, b.offsets, grid_rows=4, grid_cols=4)
        assert len(plan.jobs) == 1

    def test_job_permutations_merge_identically(self):
        rng = np.random.default_rng(109)
        n = 24
        a = rand_matrix(rng, n, k=6)
        b = rand_matrix(rng, n, k=5)
        plan = make_plan(a.dim, a.offsets, b.offsets, grid_rows=2, grid_cols=2, cuts=[11])
        want = to_dense(diag_matmul(a, b))
        scale = max(np.linalg.norm(want), 1e-300)
        for _ in range(4):
            order = rng.permutation(len(plan.jobs))
            banks = [job_product(a, b, plan.jobs[i].a_group.bounds,
                                 plan.jobs[i].b_group.bounds)[0] for i in order]
            got = to_dense(merge_outputs(n, banks))
            assert np.linalg.norm(got - want) / scale < 1e-12

    def test_grid_fit(self):
        rng = np.random.default_rng(113)
        for _ in range(10):
            n = int(rng.integers(8, 48))
            a = rand_matrix(rng, n)
            b = rand_matrix(rng, n)
            rows = int(rng.integers(1, 5))
            cols = int(rng.integers(1, 5))
            plan = make_plan(a.dim, a.offsets, b.offsets, grid_rows=rows, grid_cols=cols)
            for job in plan.jobs:
                assert len(job.a_group.bounds) <= cols
                assert len(job.b_group.bounds) <= rows

    def test_only_matching_windows_scheduled(self):
        rng = np.random.default_rng(127)
        a = rand_matrix(rng, 32, k=6)
        b = rand_matrix(rng, 32, k=6)
        plan = make_plan(a.dim, a.offsets, b.offsets, grid_rows=3, grid_cols=3, cuts=[10, 20])
        for job in plan.jobs:
            for d, first, last in job.a_group.bounds.tolist():
                cols = range(first + d, last + d + 1)
                assert all(_window_of(c, [10, 20], 32) == job.window for c in cols)
            for d, first, last in job.b_group.bounds.tolist():
                rows = range(first, last + 1)
                assert all(_window_of(r, [10, 20], 32) == job.window for r in rows)

    def test_cross_window_pairs_contribute_nothing(self):
        # pairing group w of one operand with w' != w of the other is
        # provably zero: no shared inner index
        rng = np.random.default_rng(131)
        n = 16
        a = rand_matrix(rng, n, k=4)
        b = rand_matrix(rng, n, k=4)
        plan = make_plan(a.dim, a.offsets, b.offsets, grid_rows=16, grid_cols=16, cuts=[8])
        window = {j.window: j for j in plan.jobs}
        cross, multiplies = job_product(a, b, window[0].a_group.bounds,
                                        window[1].b_group.bounds)
        assert multiplies == 0
        assert all(np.allclose(v, 0) for v in cross.values())

    def test_group_size_exceeding_grid_rejected(self):
        rng = np.random.default_rng(137)
        a = rand_matrix(rng, 8, k=2)
        with pytest.raises(PlanError):
            make_plan(a.dim, a.offsets, a.offsets, grid_rows=2, grid_cols=2, a_group_size=4)

    def test_default_cuts(self):
        assert default_cuts(4096) == []
        assert default_cuts(8192) == [4096]
        assert default_cuts(10000) == [4096, 8192]


def _window_of(idx, cuts, n):
    bounds = [0] + list(cuts) + [n]
    for w in range(len(bounds) - 1):
        if bounds[w] <= idx < bounds[w + 1]:
            return w
    raise AssertionError(f"index {idx} outside [0, {n})")
