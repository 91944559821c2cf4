"""Command-line entry point.

Subcommands: gen, convert, matmul, simulate, expm, report.
Exit codes: 0 ok, 1 usage error, 2 data or file error, 3 verification failure.
An optional key=value config file (``--config``, before the subcommand)
supplies flag defaults, typed like the flags themselves (on/off flags take
true or false); explicit flags win.  Unknown keys are usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import diagio
from .blocking import check_cuts
from .dataflow import FeedConfig, StageCycles, add_counters
from .diagmat import DiagMatrix, to_dense
from .errors import (ConvergenceError, DomainError, GridCapacityError,
                     PlanError, ShapeError, VerificationError)
from .hamiltonians import MODELS, gen_benchmark
from .hamsim import GridSetup, TaylorConfig, simulate_product, taylor_expm
from .memory import CacheConfig, SetAssocCache
from .report import (EnergyModel, build_report, iterations_to_csv, report_to_csv,
                     report_to_json)
from .spmspm import dense_matmul_oracle, diag_matmul

USAGE_EXIT = 1
DATA_EXIT = 2
VERIFY_EXIT = 3
CHECK_DIM_CAP = 1024


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _parse_feed(text: str) -> FeedConfig:
    orders = {"a": "ascending", "b": "descending"}
    names = {"asc": "ascending", "ascending": "ascending",
             "desc": "descending", "descending": "descending"}
    for part in filter(None, text.split(",")):
        side, _, order = part.partition("=")
        if side.strip() not in orders or order.strip() not in names:
            raise DomainError(f"bad feed spec {text!r}; expected like a=asc,b=desc")
        orders[side.strip()] = names[order.strip()]
    return FeedConfig(a_order=orders["a"], b_order=orders["b"])


def _parse_cuts(text: str | None):
    if not text:
        return None
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise DomainError(f"bad --cuts {text!r}; expected comma-separated integers") from None


def _load_config(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, val = line.partition("=")
            if not sep:
                raise DomainError(f"config line {raw.rstrip()!r} is not key=value")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _matrix_summary(m: DiagMatrix) -> str:
    dense = float(m.dim) ** 2
    sparsity = 1.0 - m.nnze / dense
    dsparsity = 1.0 - m.nnzd / (2.0 * m.dim - 1.0)
    return (f"dim={m.dim} nnzd={m.nnzd} nnze={m.nnze} "
            f"storage_scalars={m.storage_scalars} "
            f"sparsity={sparsity:.4%} dsparsity={dsparsity:.4%}")


def _grid_setup(args) -> GridSetup:
    return GridSetup(
        rows=args.grid_rows, cols=args.grid_cols,
        feed=_parse_feed(args.feed),
        cache=CacheConfig(sets=args.cache_sets, ways=args.cache_ways,
                          hit_cycles=args.cache_hit,
                          miss_penalty_cycles=args.cache_miss_penalty,
                          dram_cycles=args.dram_cycles),
        cuts=_parse_cuts(args.cuts),
        a_group_size=args.a_group_size, b_group_size=args.b_group_size,
        interleave=args.interleave,
    )


def _write_report(report: dict, out: str | None) -> None:
    text = report_to_json(report)
    if out:
        diagio._atomic_write(out, text.encode())
    else:
        sys.stdout.write(text)


# -- subcommands ----------------------------------------------------------------


def cmd_gen(args) -> int:
    params = {key: getattr(args, key) for key in ("g", "jx", "jy", "jz", "seed")
              if getattr(args, key) is not None}
    # an unknown model is left for gen_benchmark to name
    _, takes = MODELS.get(args.model.lower(), (None, params))
    stray = sorted(params.keys() - set(takes))
    if stray:
        raise DomainError(f"model {args.model} takes no {', '.join('--' + k for k in stray)}")
    m = gen_benchmark(args.model, args.qubits, **params)
    diagio.save_matrix(m, args.out, args.format)
    print(f"{args.model}-{args.qubits}: {_matrix_summary(m)}")
    print(f"wrote {args.out}")
    return 0


def cmd_convert(args) -> int:
    m = diagio.load_matrix(args.input, args.in_format)
    diagio.save_matrix(m, args.output, args.out_format)
    print(f"{_matrix_summary(m)}")
    return 0


def cmd_matmul(args) -> int:
    a = diagio.load_matrix(args.a)
    b = diagio.load_matrix(args.b)
    c = diag_matmul(a, b)
    if args.check:
        if a.dim > CHECK_DIM_CAP:
            raise DomainError(f"--check densifies; dim {a.dim} exceeds {CHECK_DIM_CAP}")
        ref = dense_matmul_oracle(to_dense(a), to_dense(b))
        got = to_dense(c)
        # scaled by the largest magnitude so the norms cannot overflow; a NaN
        # error (a non-finite entry) fails
        peak = max(np.abs(ref).max(initial=0.0), np.abs(got).max(initial=0.0)) or 1.0
        ref, got = ref / peak, got / peak
        err = float(np.linalg.norm(got - ref)) / max(float(np.linalg.norm(ref)), 1e-300)
        if not err <= 1e-12:
            print(f"oracle check FAILED: relative error {err:.3e}", file=sys.stderr)
            return VERIFY_EXIT
        print(f"oracle check passed: relative error {err:.3e}")
    diagio.save_matrix(c, args.out, args.format)
    print(f"product: {_matrix_summary(c)}")
    return 0


def cmd_simulate(args) -> int:
    a = diagio.load_matrix(args.a)
    b = diagio.load_matrix(args.b)
    grid = _grid_setup(args)
    cache = SetAssocCache(grid.cache)
    trace_fh = open(args.trace, "w") if args.trace else None
    trace = None
    if trace_fh:
        trace = lambda evt: trace_fh.write(json.dumps(evt) + "\n")
    try:
        product = diag_matmul(a, b)
        stage, counters, mem = simulate_product(a.dim, a.offsets, b.offsets, product.offsets,
                                                grid, cache, trace=trace)
    finally:
        if trace_fh:
            trace_fh.close()
    if args.product_out:
        diagio.save_matrix(product, args.product_out)
    report = build_report(f"simulate:{args.a}x{args.b}", grid.rows, grid.cols,
                          stage, counters, mem, model=EnergyModel())
    _write_report(report, args.out)
    if args.out:
        print(f"plan coverage check ok; report written to {args.out}")
    return 0


def cmd_expm(args) -> int:
    if bool(args.h_file) == bool(args.model) or bool(args.model) != (args.qubits is not None):
        raise DomainError("give exactly one of --h-file or --model with --qubits")
    if args.segments < 1:
        raise DomainError(f"--segments must be at least 1, got {args.segments}")
    if args.model:
        h = gen_benchmark(args.model, args.qubits)
        workload = f"{args.model}-{args.qubits}"
    else:
        h = diagio.load_matrix(args.h_file)
        workload = f"expm:{args.h_file}"
    if args.iters is None and args.eps is None:
        args.eps = 1e-8
    cfg = TaylorConfig(t=args.t / args.segments, terms=args.iters, eps=args.eps)
    grid = _grid_setup(args)
    check_cuts(grid.cuts, h.dim)  # before the series, which plans only with the simulator
    cache = SetAssocCache(grid.cache)
    segment_u, records = taylor_expm(h, cfg, None if args.functional_only else grid, cache)
    # the segmented form repeats the short-time expansion and multiplies the
    # results; the outer power is the same product kernel, run functionally
    u = segment_u
    for _ in range(1, args.segments):
        u = diag_matmul(u, segment_u)
    if args.u_out:
        diagio.save_matrix(u, args.u_out)
    stage = sum((r.stage_cycles for r in records), StageCycles(0, 0, 0, 0))
    counters: dict[str, int] = {}
    for r in records:
        add_counters(counters, r.counters)
    report = build_report(workload, grid.rows, grid.cols, stage,
                          counters, cache.stats, records, model=EnergyModel())
    report["segments"] = args.segments
    report["taylor_terms"] = len(records)
    _write_report(report, args.out)
    if args.csv:
        diagio._atomic_write(args.csv, iterations_to_csv(report["iterations"]).encode())
    if args.out:
        print(f"{workload}: {len(records)} terms; report written to {args.out}")
    return 0


def cmd_report(args) -> int:
    with open(args.input) as fh:
        report = json.load(fh)
    schema = report.get("schema") if isinstance(report, dict) else None
    if schema != 1:
        raise DomainError(f"{args.input}: unsupported report schema {schema!r}")
    try:
        text = report_to_csv(report)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise DomainError(f"{args.input}: malformed report: {type(exc).__name__} {exc}") from exc
    diagio._atomic_write(args.csv, text.encode())
    print(f"wrote {args.csv}")
    return 0


# -- wiring ----------------------------------------------------------------------


def _add_grid_flags(sub):
    sub.add_argument("--grid-rows", type=int, default=32)
    sub.add_argument("--grid-cols", type=int, default=32)
    sub.add_argument("--feed", default="a=asc,b=desc",
                     help="feed orders, e.g. a=asc,b=desc")
    sub.add_argument("--cuts", default=None,
                     help="comma-separated row/col cut indices")
    sub.add_argument("--a-group-size", type=int, default=None)
    sub.add_argument("--b-group-size", type=int, default=None)
    sub.add_argument("--interleave", type=int, default=1,
                     help="pipelined column count for single-diagonal operands")
    sub.add_argument("--cache-sets", type=int, default=2)
    sub.add_argument("--cache-ways", type=int, default=2)
    sub.add_argument("--cache-hit", type=int, default=1)
    sub.add_argument("--cache-miss-penalty", type=int, default=5)
    sub.add_argument("--dram-cycles", type=int, default=50)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="diagsim",
                     description="diagonal-sparse SpMSpM kernels and grid model")
    parser.add_argument("--config", default=None, help="key=value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a benchmark Hamiltonian")
    gen.add_argument("model", help=" | ".join(MODELS))
    gen.add_argument("qubits", type=int)
    gen.add_argument("--out", required=True)
    gen.add_argument("--format", choices=["diaq", "json", "mtx"], default=None)
    gen.add_argument("--g", type=float, default=None, help="tfim transverse field, default 1.0")
    gen.add_argument("--jx", type=float, default=None, help="heisenberg coupling, default 1.0")
    gen.add_argument("--jy", type=float, default=None, help="heisenberg coupling, default 1.0")
    gen.add_argument("--jz", type=float, default=None, help="heisenberg coupling, default 1.0")
    gen.add_argument("--seed", type=int, default=None,
                     help="random graph seed for the cut-cost model")
    gen.set_defaults(func=cmd_gen)

    conv = sub.add_parser("convert", help="convert between matrix file formats")
    conv.add_argument("input")
    conv.add_argument("output")
    conv.add_argument("--in-format", choices=["diaq", "json", "mtx"], default=None)
    conv.add_argument("--out-format", choices=["diaq", "json", "mtx"], default=None)
    conv.set_defaults(func=cmd_convert)

    mm = sub.add_parser("matmul", help="functional diagonal-space product")
    mm.add_argument("a")
    mm.add_argument("b")
    mm.add_argument("--out", required=True)
    mm.add_argument("--format", choices=["diaq", "json", "mtx"], default=None)
    mm.add_argument("--check", action="store_true",
                    help="verify against the dense oracle")
    mm.set_defaults(func=cmd_matmul)

    simc = sub.add_parser("simulate", help="cycle-level run of one product")
    simc.add_argument("a")
    simc.add_argument("b")
    simc.add_argument("--out", default=None, help="report JSON path (stdout if absent)")
    simc.add_argument("--product-out", default=None)
    simc.add_argument("--trace", default=None,
                      help="JSONL trace path: one line per grid job with its window, "
                           "group ids, grid shape, longest diagonal, stage cycles, "
                           "counters, memory delta and touched output offsets")
    _add_grid_flags(simc)
    simc.set_defaults(func=cmd_simulate)

    ex = sub.add_parser("expm", help="truncated-series exponential through the stack")
    ex.add_argument("--h-file", default=None)
    ex.add_argument("--model", default=None)
    ex.add_argument("--qubits", type=int, default=None)
    ex.add_argument("--t", type=float, default=1.0)
    ex.add_argument("--iters", type=int, default=None, help="fixed term count")
    ex.add_argument("--eps", type=float, default=None,
                    help="series remainder threshold (default 1e-8)")
    ex.add_argument("--segments", type=int, default=1,
                    help="split t into this many repeated expansions")
    ex.add_argument("--functional-only", action="store_true",
                    help="skip the cycle model")
    ex.add_argument("--out", default=None)
    ex.add_argument("--csv", default=None, help="iteration records CSV path")
    ex.add_argument("--u-out", default=None, help="write the resulting operator")
    _add_grid_flags(ex)
    ex.set_defaults(func=cmd_expm)

    rep = sub.add_parser("report", help="re-render a report JSON as CSV")
    rep.add_argument("input")
    rep.add_argument("--csv", required=True)
    rep.set_defaults(func=cmd_report)
    return parser


def _apply_config(parser: argparse.ArgumentParser, path: str) -> None:
    """Make the config file's values the subcommands' defaults.

    argparse then types them like command-line values, and explicit flags
    still win.  Unknown keys and malformed or unreadable files (not UTF-8
    included) are usage errors.
    """
    try:
        values = _load_config(path)
    except (OSError, UnicodeDecodeError, DomainError) as exc:
        parser.error(f"config {path}: {exc}")
    known = set()
    for sub in parser._subparsers._group_actions[0].choices.values():
        actions = {a.dest: a for a in sub._actions if a.dest != "help"}
        known |= actions.keys()
        defaults = {}
        for key in values.keys() & actions.keys():
            val = values[key]
            if actions[key].nargs == 0:  # on/off flags
                if val not in ("true", "false"):
                    parser.error(f"config key {key} must be true or false, got {val!r}")
                val = val == "true"
            defaults[key] = val
        sub.set_defaults(**defaults)
    if values.keys() - known:
        parser.error(f"unknown config keys: {sorted(values.keys() - known)}")


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of every run without --config, built once per process and
    never changed: _apply_config sets defaults on a parser of its own run."""
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    if args.config:
        parser = build_parser()
        _apply_config(parser, args.config)
        args = parser.parse_args(argv)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # DiagMatrix names non-finite values
            return args.func(args)
    except (ShapeError, DomainError, PlanError, GridCapacityError,
            ConvergenceError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except VerificationError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return VERIFY_EXIT


if __name__ == "__main__":
    sys.exit(main())
