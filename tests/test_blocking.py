import json

import numpy as np
import pytest

from diagsim import DiagMatrix, diag_matmul, to_dense
from diagsim.blocking import (Job, default_cuts, job_product, make_plan,
                              merge_outputs, partition_diagonals,
                              partition_rowcol, whole_segments, DiagSegment)
from diagsim.errors import PlanError

from conftest import rand_matrix


def blocked_product(plan, n):
    return merge_outputs(n, [job_product(n, j.a_group.segments, j.b_group.segments)[0]
                             for j in plan.jobs])


class TestPartitionRowcol:
    def test_five_by_five_cut(self):
        rng = np.random.default_rng(79)
        a = rand_matrix(rng, 5, offsets=[-1, 0, 1])
        b = rand_matrix(rng, 5, offsets=[-1, 0, 1])
        a_groups, b_groups = partition_rowcol(a, b, [3])
        assert len(a_groups) == len(b_groups) == 2
        # windows of width 3 and 2 bound the segment lengths
        assert max(len(s) for s in a_groups[0]) == 3
        assert max(len(s) for s in a_groups[1]) == 2
        assert max(len(s) for s in b_groups[0]) == 3
        assert max(len(s) for s in b_groups[1]) == 2

    def test_no_cuts_single_group(self):
        rng = np.random.default_rng(83)
        a = rand_matrix(rng, 6)
        b = rand_matrix(rng, 6)
        a_groups, b_groups = partition_rowcol(a, b, [])
        assert len(a_groups) == len(b_groups) == 1
        assert len(a_groups[0]) == a.nnzd
        assert all(len(s) == 6 - abs(s.offset) for s in a_groups[0])

    def test_bad_cuts(self):
        rng = np.random.default_rng(89)
        a = rand_matrix(rng, 6)
        with pytest.raises(PlanError):
            partition_rowcol(a, a, [3, 2])
        with pytest.raises(PlanError):
            partition_rowcol(a, a, [0])
        with pytest.raises(PlanError):
            partition_rowcol(a, a, [6])

    def test_reassembly_matches_unblocked(self):
        rng = np.random.default_rng(97)
        for _ in range(15):
            n = int(rng.integers(4, 65))
            a = rand_matrix(rng, n)
            b = rand_matrix(rng, n)
            n_cuts = int(rng.integers(1, 4))
            cuts = sorted(rng.choice(np.arange(1, n), size=n_cuts, replace=False).tolist())
            plan = make_plan(a, b, grid_rows=64, grid_cols=64, cuts=cuts)
            got = to_dense(blocked_product(plan, n))
            want = to_dense(diag_matmul(a, b))
            scale = max(np.linalg.norm(want), 1e-300)
            assert np.linalg.norm(got - want) / scale < 1e-12


class TestPartitionDiagonals:
    def test_reference_group_arithmetic(self):
        segs = [DiagSegment(d, max(0, -d), np.ones(1024 - abs(d)))
                for d in range(-391, 392)]
        assert len(segs) == 783
        groups = partition_diagonals(segs, 64, "A")
        assert len(groups) == 13
        assert max(len(g.segments) for g in groups) == 64

    def test_single_group_when_size_covers(self):
        rng = np.random.default_rng(101)
        segs = whole_segments(rand_matrix(rng, 12, k=5))
        groups = partition_diagonals(segs, 8, "B")
        assert len(groups) == 1

    def test_bad_group_size(self):
        with pytest.raises(PlanError):
            partition_diagonals([], 0, "A")


class TestMakePlan:
    def test_job_order_is_b_major(self):
        rng = np.random.default_rng(103)
        a = rand_matrix(rng, 8, k=4)
        b = rand_matrix(rng, 8, k=4)
        plan = make_plan(a, b, grid_rows=2, grid_cols=2)
        pairs = [(j.a_group.group_id, j.b_group.group_id) for j in plan.jobs]
        assert pairs == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_single_group_single_job(self):
        rng = np.random.default_rng(107)
        a = rand_matrix(rng, 8, k=2)
        b = rand_matrix(rng, 8, k=2)
        plan = make_plan(a, b, grid_rows=4, grid_cols=4)
        assert len(plan.jobs) == 1

    def test_job_permutations_merge_identically(self):
        rng = np.random.default_rng(109)
        n = 24
        a = rand_matrix(rng, n, k=6)
        b = rand_matrix(rng, n, k=5)
        plan = make_plan(a, b, grid_rows=2, grid_cols=2, cuts=[11])
        want = to_dense(diag_matmul(a, b))
        scale = max(np.linalg.norm(want), 1e-300)
        for _ in range(4):
            order = rng.permutation(len(plan.jobs))
            banks = [job_product(n, plan.jobs[i].a_group.segments,
                                 plan.jobs[i].b_group.segments)[0] for i in order]
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
            plan = make_plan(a, b, grid_rows=rows, grid_cols=cols)
            for job in plan.jobs:
                assert len(job.a_group.segments) <= cols
                assert len(job.b_group.segments) <= rows

    def test_only_matching_windows_scheduled(self):
        rng = np.random.default_rng(127)
        a = rand_matrix(rng, 32, k=6)
        b = rand_matrix(rng, 32, k=6)
        plan = make_plan(a, b, grid_rows=3, grid_cols=3, cuts=[10, 20])
        for job in plan.jobs:
            for seg in job.a_group.segments:
                cols = range(seg.row_start + seg.offset,
                             seg.row_start + seg.offset + len(seg))
                assert all(_window_of(c, [10, 20], 32) == job.window for c in cols)
            for seg in job.b_group.segments:
                rows = range(seg.row_start, seg.row_start + len(seg))
                assert all(_window_of(r, [10, 20], 32) == job.window for r in rows)

    def test_cross_window_pairs_contribute_nothing(self):
        # pairing group w of one operand with w' != w of the other is
        # provably zero: no shared inner index
        rng = np.random.default_rng(131)
        n = 16
        a = rand_matrix(rng, n, k=4)
        b = rand_matrix(rng, n, k=4)
        a_groups, b_groups = partition_rowcol(a, b, [8])
        cross, multiplies = job_product(n, a_groups[0], b_groups[1])
        assert multiplies == 0
        assert all(np.allclose(v, 0) for v in cross.values())

    def test_group_size_exceeding_grid_rejected(self):
        rng = np.random.default_rng(137)
        a = rand_matrix(rng, 8, k=2)
        with pytest.raises(PlanError):
            make_plan(a, a, grid_rows=2, grid_cols=2, a_group_size=4)

    def test_plan_json_dump(self):
        rng = np.random.default_rng(139)
        a = rand_matrix(rng, 8, k=3)
        plan = make_plan(a, a, grid_rows=2, grid_cols=2)
        doc = json.loads(plan.to_json())
        assert doc["grid"] == {"rows": 2, "cols": 2}
        assert len(doc["jobs"]) == len(plan.jobs)

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
