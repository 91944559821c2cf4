"""The closed-form job model against the per-cycle stepper oracle."""

import json

import numpy as np
from hypothesis import given, settings, strategies as st

from diagsim import diag_matmul, gen_benchmark
from diagsim.blocking import make_plan
from diagsim.cli import main
from diagsim.dataflow import FeedConfig, run_job
from diagsim.diagio import save_matrix
from diagsim.hamsim import GridSetup, simulate_product
from diagsim.memory import SetAssocCache

from blocking_oracle import job_product
from conftest import rand_matrix
from stepper import step_job

ORDERS = ("ascending", "descending")


@st.composite
def products(draw):
    """A random operand pair, its blocking plan and a feed configuration."""
    n = draw(st.integers(2, 40))
    offsets = st.lists(st.integers(-(n - 1), n - 1), min_size=1, max_size=6, unique=True)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rand_matrix(rng, n, offsets=sorted(draw(offsets)))
    b = rand_matrix(rng, n, offsets=sorted(draw(offsets)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=3))) if n > 2 else []
    a_gs = draw(st.integers(1, 4))
    b_gs = draw(st.integers(1, 4))
    plan = make_plan(a.dim, a.offsets, b.offsets, grid_rows=4, grid_cols=4, cuts=cuts,
                     a_group_size=a_gs, b_group_size=b_gs)
    feed = FeedConfig(draw(st.sampled_from(ORDERS)), draw(st.sampled_from(ORDERS)))
    return a, b, plan, feed


@settings(max_examples=150)
@given(products(), st.data())
def test_closed_form_matches_stepper(product, data):
    a, b, plan, feed = product
    for job in plan.jobs:
        a_segs, b_segs = job.a_group.bounds, job.b_group.bounds
        interleave = 1
        if len(a_segs) == 1:
            length = int(a_segs[0, 2] - a_segs[0, 1] + 1)
            interleave = data.draw(st.integers(1, min(length, 4)), label="interleave")
        kw = dict(max_rows=4, max_cols=4, interleave=interleave)
        closed = run_job(a_segs, b_segs, feed, **kw)
        stepped = step_job(a, b, a_segs, b_segs, feed, collect_products=True, **kw)
        assert closed.stage == stepped.stage
        assert closed.counters == stepped.counters
        assert closed.offsets == sorted(stepped.bank.vectors)
        # the functional per-job reference fires the same multiplies to the same values
        values, multiplies = job_product(a, b, a_segs, b_segs)
        assert multiplies == closed.counters["multiplies"]
        assert values.keys() == stepped.bank.vectors.keys()
        for dc, vec in stepped.bank.vectors.items():
            scale = max(float(np.max(np.abs(vec))), 1.0)
            assert np.max(np.abs(values[dc] - vec)) <= 1e-12 * scale


def test_trace_is_one_closed_form_line_per_job(tmp_path):
    """simulate --trace writes one closed-form line per job, and tracing moves
    no modeled figure."""
    h = gen_benchmark("tfim", 5)
    grid = GridSetup(rows=4, cols=4, cuts=(16,))
    plan = make_plan(h.dim, h.offsets, h.offsets, grid.rows, grid.cols, cuts=grid.cuts)
    events = []
    square = (h.dim, h.offsets, h.offsets, diag_matmul(h, h).offsets, grid)
    traced = simulate_product(*square, SetAssocCache(grid.cache), trace=events.append)
    untraced = simulate_product(*square, SetAssocCache(grid.cache))
    assert traced == untraced
    assert [e["job"] for e in events] == list(range(len(plan.jobs)))
    for event, job in zip(events, plan.jobs):
        assert (event["window"], event["a_group"], event["b_group"]) == (
            job.window, job.a_group.group_id, job.b_group.group_id)
        result = run_job(job.a_group.bounds, job.b_group.bounds, grid.feed)
        assert event["counters"] == result.counters and event["offsets"] == result.offsets
        assert event["cycles"]["total"] == result.stage.total
    assert sum(e["cycles"]["total"] for e in events) == untraced[0].total
    assert sum(e["mem"]["hits"] + e["mem"]["misses"] for e in events) == (
        untraced[2].accesses)

    path = tmp_path / "h.diaq"
    save_matrix(h, str(path))
    argv = ["simulate", str(path), str(path), "--grid-rows", "4", "--grid-cols", "4",
            "--cuts", "16", "--out", str(tmp_path / "r.json"), "--trace",
            str(tmp_path / "t.jsonl")]
    assert main(argv) == 0
    lines = (tmp_path / "t.jsonl").read_text().splitlines()
    assert [json.loads(line) for line in lines] == json.loads(json.dumps(events))
