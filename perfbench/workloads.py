"""The benchmark's workloads: seeded inputs, CLI command sequences, checks.

Each workload is one closed-loop pass of ``diagsim`` commands.  The program
only ever receives the generated files (and, for ``gen``, the drawn coupling
values); it never sees the seed.  Every command has a check that runs after
the pass, outside the timed region.

Why these workloads:

* ``simulate`` -- a few large grid jobs with long diagonal streams (1-9 jobs
  per product); the grid stepper in ``dataflow`` does most of the work, and
  maxcut-12 (one diagonal, dim 4096) puts the CLI's dense cross-check on the
  path, which sets the peak memory.
* ``expm-func`` -- chained functional products whose band widens to about 400
  diagonals; ``spmspm`` and ``diagmat`` do the work and the grid model is
  never called, so grid-model changes should leave it unchanged.
* ``expm-sim`` -- many short grid jobs (54 chained products, 305 jobs) with the
  per-step check on; the only workload that exercises LRU reuse across
  chained products and the per-product ``blocking`` merge repeatedly.
* ``io-roundtrip`` -- file formats and generation dominate; the Matrix Market
  reader densifies, which sets the peak memory.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
import scipy.io
import scipy.sparse
import scipy.linalg

from diagsim.diagio import load_matrix, read_diaq_json, save_matrix
from diagsim.diagmat import COMPLEX, DiagMatrix, Diagonal, to_dense
from diagsim.hamiltonians import gen_benchmark
from diagsim.spmspm import diag_matmul

WORKLOADS = ("simulate", "expm-func", "expm-sim", "io-roundtrip")

# (model, qubits, grid side) of each simulate product
SIMULATE_INPUTS = [("heisenberg", 10, 32), ("tfim", 10, 16), ("heisenberg", 8, 8),
                   ("tfim", 8, 8), ("maxcut", 12, 32)]
EXPM_FUNC_INPUTS = [("heisenberg", 8), ("tfim", 8)]
EXPM_FUNC_T = 0.5
EXPM_SIM_INPUT = ("heisenberg", 6)
EXPM_SIM_T = 1.0
EXPM_EPS = 1e-8
IO_QUBITS = 12
PRODUCT_RTOL = 1e-12
MTX_RTOL = 1e-12


def draw(seed: int) -> dict:
    """Couplings uniform in [0.9, 1.1] and a maxcut graph seed.

    One value serves both jx and jy: jx != jy would change heisenberg's
    diagonal structure (19 -> 37 diagonals at 10 qubits).  A draw of 1.1 keeps
    heisenberg-6 at t = 1 at 58 Taylor terms, under the cap of 64.
    """
    rng = np.random.default_rng(seed)
    j_xy, j_z, g = (float(x) for x in rng.uniform(0.9, 1.1, size=3))
    return {"j_xy": j_xy, "j_z": j_z, "g": g, "graph_seed": int(rng.integers(2**31))}


def hamiltonian(model: str, qubits: int, couplings: dict) -> DiagMatrix:
    params = {
        "heisenberg": {"jx": couplings["j_xy"], "jy": couplings["j_xy"], "jz": couplings["j_z"]},
        "tfim": {"g": couplings["g"]},
        "maxcut": {"seed": couplings["graph_seed"]},
    }[model]
    return gen_benchmark(model, qubits, **params)


def input_specs(workload: str) -> list[tuple[str, int]]:
    """The (model, qubits) input files a workload's set-up writes."""
    return {
        "simulate": [(m, q) for m, q, _ in SIMULATE_INPUTS],
        "expm-func": EXPM_FUNC_INPUTS,
        "expm-sim": [EXPM_SIM_INPUT],
        # the reference the io checks compare against; the CLI generates its own
        "io-roundtrip": [("heisenberg", IO_QUBITS)],
    }[workload]


def input_path(workdir: str, model: str, qubits: int) -> str:
    return os.path.join(workdir, f"{model}-{qubits}.diaq")


def make_inputs(workload: str, seed: int, workdir: str) -> None:
    couplings = draw(seed)
    os.makedirs(workdir, exist_ok=True)
    for model, qubits in input_specs(workload):
        save_matrix(hamiltonian(model, qubits, couplings), input_path(workdir, model, qubits))


# -- checks: each returns None when the output is right, else a message --------


def _by_offset(m: DiagMatrix) -> dict[int, np.ndarray]:
    return {d.offset: d.values for d in m.diagonals}


def rel_err(got: DiagMatrix, ref: DiagMatrix) -> float:
    """Frobenius relative error, computed diagonal by diagonal (no densify)."""
    if got.dim != ref.dim:
        return float("inf")
    g, r = _by_offset(got), _by_offset(ref)
    diff = ref_sq = 0.0
    for off in set(g) | set(r):
        gv = g.get(off, 0.0)
        rv = r.get(off, 0.0)
        diff += float(np.sum(np.abs(gv - rv) ** 2))
        ref_sq += float(np.sum(np.abs(rv) ** 2))
    return (diff / max(ref_sq, 1e-300)) ** 0.5


def check_close(got: DiagMatrix, ref: DiagMatrix, rtol: float) -> str | None:
    err = rel_err(got, ref)
    return None if err <= rtol else f"relative error {err:.3e} > {rtol:g}"


def check_identical(got: DiagMatrix, ref: DiagMatrix) -> str | None:
    if got.dim != ref.dim or got.offsets != ref.offsets:
        return f"structure differs: dim {got.dim} vs {ref.dim}, {got.nnzd} vs {ref.nnzd} diagonals"
    for dg, dr in zip(got.diagonals, ref.diagonals):
        if dg.values.tobytes() != dr.values.tobytes():
            return f"values differ on diagonal {dg.offset}"
    return None


def expm_bound(eps: float) -> float:
    """Allowed ||U - expm(-i t H)||_2 for a series stopped at eps.

    hamsim stops the series at the first K with ||M||_1^(K+1)/(K+1)! <= eps;
    the tail is at most eps / (1 - ||M||_1/(K+2)), below 2 eps for these
    inputs, and the 2-norm of the (normal) tail is at most its 1-norm.  1e-12
    covers rounding and hamsim's dropping of cancellation debris.
    """
    return 2 * eps + 1e-12


def check_expm(got: DiagMatrix, ref: np.ndarray, bound: float) -> str | None:
    err = float(np.linalg.norm(to_dense(got) - ref, 2))
    return None if err <= bound else f"||U - expm||_2 = {err:.3e} > {bound:.3e}"


def mtx_as_diag(path: str) -> DiagMatrix:
    """Read a Matrix Market file entry by entry into diagonals (no densify)."""
    coo = scipy.sparse.coo_matrix(scipy.io.mmread(path))
    n = coo.shape[0]
    acc: dict[int, np.ndarray] = {}
    offsets = coo.col.astype(np.int64) - coo.row
    index = np.minimum(coo.row, coo.col)
    for off in np.unique(offsets):
        sel = offsets == off
        vec = np.zeros(n - abs(int(off)), dtype=COMPLEX)
        np.add.at(vec, index[sel], coo.data[sel].astype(COMPLEX))
        acc[int(off)] = vec
    return DiagMatrix(n, tuple(Diagonal(d, acc[d]) for d in sorted(acc)))


def _output(path: str, check: Callable, ref, *args, reader=load_matrix) -> str | None:
    """Read the output at path and check it against ref, a matrix or a file."""
    if isinstance(ref, str):
        ref = load_matrix(ref)
    return check(reader(path), ref, *args)


def _square_of(path: str, out_path: str) -> str | None:
    a = load_matrix(path)
    return check_close(load_matrix(out_path), diag_matmul(a, a), PRODUCT_RTOL)


# -- command sequences ----------------------------------------------------------


@dataclass
class Command:
    argv: list[str]
    check: Callable[[], str | None]  # may raise OSError/ValueError on unreadable output


@dataclass
class Plan:
    commands: list[Command]
    reports: list[str]  # report files holding modeled figures


def build(workload: str, seed: int, workdir: str) -> Plan:
    """Commands of one pass, with checks against references computed here."""
    w = partial(os.path.join, workdir)
    if workload == "simulate":
        cmds, reports = [], []
        for model, qubits, side in SIMULATE_INPUTS:
            a_path = input_path(workdir, model, qubits)
            a = load_matrix(a_path)
            report = w(f"report-{model}-{qubits}.json")
            product = w(f"product-{model}-{qubits}.diaq")
            cmds.append(Command(
                ["simulate", a_path, a_path, "--out", report, "--product-out", product,
                 "--grid-rows", str(side), "--grid-cols", str(side)],
                partial(_output, product, check_close, diag_matmul(a, a), PRODUCT_RTOL)))
            reports.append(report)
        return Plan(cmds, reports)
    if workload in ("expm-func", "expm-sim"):
        functional = workload == "expm-func"
        inputs, t = ((EXPM_FUNC_INPUTS, EXPM_FUNC_T) if functional
                     else ([EXPM_SIM_INPUT], EXPM_SIM_T))
        cmds, reports = [], []
        for model, qubits in inputs:
            h_path = input_path(workdir, model, qubits)
            ref = scipy.linalg.expm(-1j * t * to_dense(load_matrix(h_path)))
            u_path = w(f"u-{model}-{qubits}.diaq")
            argv = ["expm", "--h-file", h_path, "--t", repr(t), "--eps", repr(EXPM_EPS)]
            if functional:
                argv += ["--functional-only"]
            else:
                reports.append(w(f"report-{model}-{qubits}.json"))
                argv += ["--grid-rows", "16", "--grid-cols", "16", "--out", reports[-1]]
            argv += ["--u-out", u_path]
            cmds.append(Command(argv, partial(_output, u_path, check_expm, ref,
                                              expm_bound(EXPM_EPS))))
        return Plan(cmds, reports)
    if workload == "io-roundtrip":
        c = draw(seed)
        ref = load_matrix(input_path(workdir, "heisenberg", IO_QUBITS))
        gen, js, mtx = w("gen.diaq"), w("gen.json"), w("gen.mtx")
        back, prod, prod_js = w("back.diaq"), w("prod.diaq"), w("prod.json")
        return Plan([
            Command(["gen", "heisenberg", str(IO_QUBITS), "--out", gen, "--jx", repr(c["j_xy"]),
                     "--jy", repr(c["j_xy"]), "--jz", repr(c["j_z"])],
                    partial(_output, gen, check_identical, ref)),
            Command(["convert", gen, js],
                    partial(_output, js, check_identical, ref, reader=read_diaq_json)),
            Command(["convert", js, mtx],
                    partial(_output, mtx, check_close, ref, MTX_RTOL, reader=mtx_as_diag)),
            Command(["convert", mtx, back], partial(_output, back, check_close, ref, MTX_RTOL)),
            Command(["matmul", back, back, "--out", prod], partial(_square_of, back, prod)),
            Command(["convert", prod, prod_js], partial(_output, prod_js, check_identical, prod,
                                                       reader=read_diaq_json)),
        ], [])
    raise ValueError(f"unknown workload {workload!r}")


# -- modeled figures ----------------------------------------------------------


def figures(report_paths: list[str]) -> list[dict]:
    """The modeled fields of each report, in command order."""
    out = []
    for path in report_paths:
        with open(path) as fh:
            rep = json.load(fh)
        out.append({
            "cycles": rep["cycles"],
            "events": rep["events"],
            "active_dpe_cycles": rep["active_dpe_cycles"],
            "mem_stall_cycles": rep["mem_stall_cycles"],
            "serialized_total_cycles": rep["serialized_total_cycles"],
            "energy_pj": rep["energy_pj"],
        })
    return out

