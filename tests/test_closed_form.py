"""The closed-form job model against the per-cycle stepper it replaces."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diagsim import dataflow, gen_benchmark
from diagsim.blocking import make_plan
from diagsim.dataflow import FeedConfig, run_job
from diagsim.hamsim import GridSetup, simulate_product
from diagsim.memory import SetAssocCache

from conftest import rand_matrix

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
    plan = make_plan(a, b, grid_rows=4, grid_cols=4, cuts=cuts,
                     a_group_size=a_gs, b_group_size=b_gs)
    feed = FeedConfig(draw(st.sampled_from(ORDERS)), draw(st.sampled_from(ORDERS)))
    return n, plan, feed


@settings(max_examples=150, deadline=None)
@given(products(), st.data())
def test_closed_form_matches_stepper(product, data):
    n, plan, feed = product
    for job in plan.jobs:
        a_segs, b_segs = job.a_group.segments, job.b_group.segments
        interleave = 1
        if len(a_segs) == 1:
            interleave = data.draw(st.integers(1, min(len(a_segs[0]), 4)), label="interleave")
        kw = dict(n=n, max_rows=4, max_cols=4, interleave=interleave)
        closed = run_job(a_segs, b_segs, feed, **kw)
        stepped = run_job(a_segs, b_segs, feed, collect_products=True, **kw)
        assert closed.stage == stepped.stage
        assert closed.counters == stepped.counters
        assert closed.bank.vectors.keys() == stepped.bank.vectors.keys()
        for dc, vec in stepped.bank.vectors.items():
            scale = max(float(np.max(np.abs(vec))), 1.0)
            assert np.max(np.abs(closed.bank.vectors[dc] - vec)) <= 1e-12 * scale


def test_untraced_jobs_never_step(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the default path constructed the grid stepper")

    monkeypatch.setattr(dataflow, "GridRun", refuse)
    h = gen_benchmark("tfim", 5)
    grid = GridSetup(rows=4, cols=4, cuts=(16,))
    _, stage, counters, _ = simulate_product(h, h, grid, SetAssocCache(grid.cache))
    assert stage.total > 0 and counters["multiplies"] > 0
    with pytest.raises(AssertionError, match="stepper"):
        simulate_product(h, h, grid, SetAssocCache(grid.cache), trace=lambda evt: None)
