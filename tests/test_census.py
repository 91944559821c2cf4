"""Byte census: every output of a fixed set of CLI commands hashes as recorded.

The commands cover gen, convert, matmul --check, simulate (the default grid,
and an 8 x 8 grid with --trace and --product-out), expm and report --csv.
expm runs heisenberg, tfim and maxcut at 4-6 qubits, functional and
simulated, at t = 0.5 and t = -0.3, with --iters, --segments 2, --csv and
--u-out in both DiaQ formats, plus one complex H (heisenberg-6 with a Y term
on qubit 0), whose chain stays packed.  Split inputs, whose dense chains run
block by block, follow: heisenberg-8 at t = 0.5, functional and simulated on
a 16 x 16 grid, heisenberg-10 at t = 0.5, functional, and a hand-built real H
of two interleaved 20-state components and one 1-state component.  Then come
products that reach each side of the kernel's real/complex choice: the real
heisenberg-8 squared (77 diagonals, so A is laid out in two blocks) times
heisenberg-8, a complex U times the real h6 in both orders, and a real H whose
imaginary parts and stored zeros all hold -0.0, through matmul and through
simulate --product-out.  Last, simulated runs pin the memory and grid
flags off their defaults: 3 sets of 1 way, 100,000 sets of 3 ways, 5 sets
of 1 way with a descending A feed and A groups of 3, --interleave 2, and
--cuts with B groups of 2 on 4 sets.  Each
command's stdout and every file left in the run's directory is hashed with
sha256, except Matrix Market files, whose text is scipy's.  The commands run
in a fresh directory with relative names, so no output holds a path of the
run.

census_sha256.json holds the hashes.  A change that means to change an
output rewrites it, from the tests directory:

    PYTHONPATH=../src python test_census.py > census_sha256.json
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from diagsim import cli, diagio
from diagsim.diagmat import DiagMatrix, from_coo
from diagsim.hamiltonians import heisenberg_chain, pauli_to_diagmatrix, term

RECORD = Path(__file__).resolve().parent / "census_sha256.json"

COMMANDS = [
    "gen heisenberg 6 --out h6.diaq",
    "gen tfim 5 --out t5.json",
    "gen maxcut 6 --out m6.mtx",
    "gen heisenberg 4 --out h4.json --jx 0.7 --jy 0.7 --jz -0.4",
    "convert h6.diaq h6.json",
    "convert t5.json t5.diaq",
    "convert m6.mtx m6.diaq",
    "convert h6.diaq h6.mtx",
    "convert h6.mtx h6-mtx.diaq",
    "convert h4.json h4.bin --out-format diaq",
    "matmul h6.diaq h6.json --out hh6.diaq --check",
    "matmul t5.diaq t5.json --out tt5.json --check",
    "matmul hy6.diaq h6.diaq --out hyh6.diaq --check",
    "simulate h6.diaq h6.diaq",
    "simulate h6.diaq hh6.diaq --grid-rows 8 --grid-cols 8",
    "simulate t5.diaq t5.diaq --grid-rows 8 --grid-cols 8 --trace t5.jsonl "
    "--product-out t5t5.diaq --out sim-t5.json",
    "simulate m6.diaq h6.diaq --grid-rows 8 --grid-cols 8 --cuts 16,40 --trace mh.jsonl "
    "--product-out mh.json --out sim-mh.json",
    "expm --model heisenberg --qubits 4 --t 0.5",
    "expm --model tfim --qubits 5 --t -0.3 --functional-only",
    "expm --model heisenberg --qubits 5 --t 0.5 --iters 9 --out it-h5.json --csv it-h5.csv",
    "expm --model tfim --qubits 4 --t 0.5 --segments 2 --out seg-t4.json --u-out seg-t4-u.json "
    "--csv seg-t4.csv",
    "expm --h-file hy6.diaq --t 0.5 --functional-only --out hy6-f.json --u-out hy6-f.diaq",
    "expm --h-file hy6.diaq --t -0.3 --grid-rows 8 --grid-cols 8 --out hy6-s.json "
    "--u-out hy6-s-u.json --csv hy6-s.csv",
    "report sim-t5.json --csv sim-t5.csv",
    "report it-h5.json --csv it-h5-report.csv",
]
COMMANDS += [
    f"expm --model {model} --qubits {qubits} --t {t}{flag} --out {name}.json "
    f"--u-out {name}.diaq --csv {name}.csv"
    for model, qubits in (("heisenberg", 6), ("tfim", 6), ("maxcut", 4), ("maxcut", 6))
    for t in ("0.5", "-0.3")
    for mode, flag in (("f", " --functional-only"), ("s", ""))
    for name in [f"{model}{qubits}-{mode}{t}"]
]
COMMANDS.append("expm --model tfim --qubits 4 --t -0.3 --u-out tfim4-u.json")
COMMANDS += [
    "expm --model heisenberg --qubits 8 --t 0.5 --functional-only --out h8-f.json "
    "--u-out h8-f.diaq --csv h8-f.csv",
    "expm --model heisenberg --qubits 8 --t 0.5 --grid-rows 16 --grid-cols 16 --out h8-s.json "
    "--u-out h8-s.diaq --csv h8-s.csv",
    "expm --model heisenberg --qubits 10 --t 0.5 --functional-only --out h10-f.json "
    "--u-out h10-f.diaq",
    "expm --h-file split.diaq --t 0.5 --functional-only --out split-f.json --u-out split-f.diaq "
    "--csv split-f.csv",
    "expm --h-file split.diaq --t -0.3 --grid-rows 8 --grid-cols 8 --out split-s.json "
    "--u-out split-s-u.json --csv split-s.csv",
]
COMMANDS += [
    "gen heisenberg 8 --out h8.diaq",
    "matmul h8.diaq h8.diaq --out h8h8.diaq",
    "matmul h8h8.diaq h8.diaq --out h8h8h8.diaq",
    "matmul heisenberg6-f0.5.diaq h6.diaq --out uh6.diaq --check",
    "matmul h6.diaq heisenberg6-f0.5.diaq --out h6u.diaq --check",
    "matmul nz.diaq nz.diaq --out nznz.diaq --check",
    "simulate nz.diaq nz.diaq --grid-rows 8 --grid-cols 8 --product-out nznz-sim.diaq",
]
COMMANDS += [
    "expm --model heisenberg --qubits 5 --t 0.5 --cache-sets 3 --cache-ways 1 --out c-h5.json",
    "expm --model tfim --qubits 5 --t 0.5 --cache-sets 100000 --cache-ways 3 --out c-t5.json",
    "simulate h6.diaq h6.diaq --grid-rows 8 --grid-cols 8 --cache-sets 5 --cache-ways 1 "
    "--feed a=desc,b=asc --a-group-size 3 --trace c-h6.jsonl --out c-h6.json",
    "expm --model maxcut --qubits 4 --t 0.5 --interleave 2 --out c-m4.json",
    "expm --model heisenberg --qubits 6 --t 0.5 --grid-rows 4 --grid-cols 4 --b-group-size 2 "
    "--cuts 16,40 --cache-sets 4 --cache-ways 2 --out c-h6g.json",
]


def split_h():
    """A real symmetric H on 41 states whose components are the even states
    but 20, the odd states, and state 20 alone; each state is coupled to
    itself and to the next and the third-next state of its component."""
    rows, cols = [20], [20]
    for states in (np.setdiff1d(np.arange(0, 41, 2), [20]), np.arange(1, 41, 2)):
        for i, j in itertools.product(range(len(states)), repeat=2):
            if abs(i - j) in (0, 1, 3):
                rows.append(states[i])
                cols.append(states[j])
    rows, cols = np.array(rows), np.array(cols)
    return from_coo(41, rows, cols, np.cos(rows + cols) + 0.5 * (rows == cols))


def negative_zero_h():
    """Heisenberg-5 with -0.0 in every imaginary part and in every stored zero."""
    h = pauli_to_diagmatrix(heisenberg_chain(5), 5)
    values = h.values.copy()
    values.imag = -0.0
    values.real[values.real == 0] = -0.0
    return DiagMatrix.packed(h.dim, h.offsets, values)


def write_inputs() -> None:
    """The complex H, heisenberg-6 plus 0.3 Y on qubit 0, the split H and the
    H of negative zeros."""
    h = pauli_to_diagmatrix(heisenberg_chain(6) + [term(0.3, 6, q0="Y")], 6)
    diagio.save_matrix(h, "hy6.diaq")
    diagio.save_matrix(split_h(), "split.diaq")
    diagio.save_matrix(negative_zero_h(), "nz.diaq")


def census() -> dict[str, str]:
    """sha256 of each command's stdout and of each file the commands leave,
    run in the current directory; every command must exit 0."""
    write_inputs()
    hashes = {}
    for command in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(command.split())
        assert code == 0, f"{command} exited {code}"
        hashes[f"$ {command}"] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    for path in sorted(Path(".").iterdir()):
        if path.suffix != ".mtx":
            hashes[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def test_every_output_hashes_as_recorded(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = census()
    want = json.loads(RECORD.read_text())
    assert got.keys() == want.keys()
    assert [key for key in got if got[key] != want[key]] == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        json.dump(census(), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
