import os

import pytest

import diagsim.cli
import diagsim.diagmat
import diagsim.hamsim
from diagsim.diagio import save_matrix
from diagsim.hamiltonians import gen_benchmark
from diagsim.spmspm import multiply_count
from tracer import SPANS, Tracer, self_times


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("leaf", 2.0, 3.0, 1),
        ("b", 5.0, 6.0, 0),
        ("b", 7.0, 9.0, 0),
    ]
    totals = self_times(spans)
    assert totals["root"] == [pytest.approx(4.0), 10.0, 1]  # 10 - (3 + 1 + 2)
    assert totals["a"] == [pytest.approx(2.0), 3.0, 1]
    assert totals["leaf"] == [pytest.approx(1.0), 1.0, 1]
    assert totals["b"] == [pytest.approx(3.0), 3.0, 2]


def test_overlapping_children_are_covered_once():
    spans = [("p", 0.0, 10.0, -1), ("c", 2.0, 6.0, 0), ("c", 4.0, 8.0, 0), ("c", 9.0, 12.0, 0)]
    # children cover [2, 8] and [9, 10] inside the parent
    assert self_times(spans)["p"][0] == pytest.approx(3.0)


@pytest.fixture
def heis4(tmp_path):
    path = str(tmp_path / "h.diaq")
    save_matrix(gen_benchmark("heisenberg", 4), path)
    return path


def test_traced_cli_run_nests_spans_and_restores_attributes(heis4, tmp_path):
    originals = (diagsim.hamsim.simulate_product, diagsim.cli.simulate_product,
                 diagsim.diagmat.DiagMatrix.__post_init__)
    tracer = Tracer()
    tracer.install()
    try:
        assert diagsim.cli.simulate_product is diagsim.hamsim.simulate_product
        assert diagsim.cli.simulate_product is not originals[0]
        code = diagsim.cli.main(["simulate", heis4, heis4, "--out", str(tmp_path / "r.json"),
                                 "--grid-rows", "8", "--grid-cols", "8"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert (diagsim.hamsim.simulate_product, diagsim.cli.simulate_product,
            diagsim.diagmat.DiagMatrix.__post_init__) == originals

    names = [s[0] for s in tracer.spans]
    parent_of = {i: tracer.spans[s[3]][0] for i, s in enumerate(tracer.spans) if s[3] >= 0}
    assert tracer.spans[0][0] == "cli.cmd_simulate" and tracer.spans[0][3] == -1
    sim = names.index("hamsim.simulate_product")
    assert parent_of[sim] == "cli.cmd_simulate"
    assert {parent_of[i] for i, n in enumerate(names) if n == "dataflow.run_job"} == {
        "hamsim.simulate_product"}
    per = tracer.per_layer(1, multiply_count)
    assert per["dataflow.run_job.calls"] >= 1
    assert per["dataflow.multiplies"] == per["spmspm.mults"] > 0  # the CLI's cross-check
    assert per["memory.accesses"] > 0
    assert per["diagio.bytes_read"] == 2 * os.path.getsize(heis4)


def test_every_span_target_exists():
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = {name for name, *_ in SPANS}
        assert len(tracer._patches) >= len(wrapped)
    finally:
        tracer.uninstall()


def test_mtx_read_attributes_from_dense_to_load_matrix(heis4, tmp_path):
    mtx = str(tmp_path / "h.mtx")
    tracer = Tracer()
    tracer.install()
    try:
        assert diagsim.cli.main(["convert", heis4, mtx]) == 0
        assert diagsim.cli.main(["convert", mtx, str(tmp_path / "back.diaq")]) == 0
    finally:
        tracer.uninstall()
    spans = tracer.spans
    (fd,) = [s for s in spans if s[0] == "diagio.from_dense"]
    assert spans[fd[3]][0] == "diagio.load_matrix"
