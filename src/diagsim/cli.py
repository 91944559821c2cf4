"""Command-line entry point.

Subcommands: gen, convert, matmul, simulate, expm, report.
Exit codes: 0 ok, 1 usage error, 2 data or file error, 3 verification failure.
An optional key=value config file (``--config``, before the subcommand)
supplies flag defaults, typed like the flags themselves (on/off flags take
true or false); explicit flags win; a key the subcommand lacks is a usage error.
An explicit flag also drops the config values of the flags it excludes:
--iters or --eps, --h-file or --model with --qubits.  Every built-in default
is the library's: GridSetup's, CacheConfig's and FeedConfig's fields,
TaylorConfig.t, hamsim.DEFAULT_EPS and the couplings MODELS lists.
cmd_expm parses, calls hamsim.expm (the series, segments and totals) and writes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import diagio
from .blocking import check_cuts
from .dataflow import FeedConfig
from .diagmat import DiagMatrix, to_dense
from .errors import (ConvergenceError, DomainError, GridCapacityError,
                     PlanError, ShapeError, VerificationError)
from .hamiltonians import MODELS, gen_benchmark
from .hamsim import DEFAULT_EPS, GridSetup, TaylorConfig, expm, simulate_product
from .memory import CacheConfig, SetAssocCache
from .report import build_report, iterations_to_csv, report_to_csv, report_to_json
from .spmspm import dense_matmul_oracle, diag_matmul

USAGE_EXIT = 1
DATA_EXIT = 2
VERIFY_EXIT = 3
CHECK_DIM_CAP = 1024

# expm flags by dest -> the flags each excludes; all default to None
_EXCLUDES = {"iters": ("eps",), "eps": ("iters",), "h_file": ("model", "qubits"),
             "model": ("h_file",), "qubits": ("h_file",)}
# each model's coupling parameters (gen's flags) -> type
_COUPLINGS = {key: kind for _, takes in MODELS.values() for key, kind in takes.items()}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _parse_feed(text: str | None) -> FeedConfig:
    """FeedConfig with the orders text gives its sides; FeedConfig checks them."""
    orders = {}
    for part in filter(None, (text or "").split(",")):
        side, _, order = (tok.strip() for tok in part.partition("="))
        if side not in ("a", "b"):
            raise DomainError(f"bad feed spec {text!r}; expected like a=asc,b=desc")
        orders[f"{side}_order"] = {"asc": "ascending", "desc": "descending"}.get(order, order)
    return FeedConfig(**orders)


def _parse_cuts(text: str | None):
    if not text:
        return None
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise DomainError(f"bad --cuts {text!r}; expected comma-separated integers") from None


# grid and cache flags by dest -> the GridSetup or CacheConfig field each sets.
# An integer flag takes its field's default; --feed and --cuts are parsed by
# _grid_setup, so that a bad value is a data error, and map None to theirs.
_GRID_FLAGS = {
    GridSetup: {"grid_rows": "rows", "grid_cols": "cols", "feed": "feed", "cuts": "cuts",
                "a_group_size": "a_group_size", "b_group_size": "b_group_size",
                "interleave": "interleave"},
    CacheConfig: {"cache_sets": "sets", "cache_ways": "ways", "cache_hit": "hit_cycles",
                  "cache_miss_penalty": "miss_penalty_cycles", "dram_cycles": "dram_cycles"},
}
_TEXT_FLAGS = {"feed": _parse_feed, "cuts": _parse_cuts}


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
            key = key.strip().replace("-", "_")
            if key in values:
                raise DomainError(f"key {key} is given twice")
            values[key] = val.strip()
    return values


def _matrix_summary(m: DiagMatrix) -> str:
    nnze = m.nnze  # a full count_nonzero over the packed buffer
    sparsity = 1.0 - nnze / float(m.dim) ** 2
    dsparsity = 1.0 - m.nnzd / (2.0 * m.dim - 1.0)
    return (f"dim={m.dim} nnzd={m.nnzd} nnze={nnze} "
            f"storage_scalars={m.storage_scalars} "
            f"sparsity={sparsity:.4%} dsparsity={dsparsity:.4%}")


def _grid_setup(args) -> GridSetup:
    fields = {owner: {name: getattr(args, dest) for dest, name in flags.items()}
              for owner, flags in _GRID_FLAGS.items()}
    for dest, parse in _TEXT_FLAGS.items():  # each sets the GridSetup field of its name
        fields[GridSetup][dest] = parse(getattr(args, dest))
    return GridSetup(cache=CacheConfig(**fields[CacheConfig]), **fields[GridSetup])


def _write_report(report: dict, out: str | None) -> None:
    text = report_to_json(report)
    if out:
        diagio.atomic_write(out, text.encode())
    else:
        sys.stdout.write(text)


# -- subcommands ----------------------------------------------------------------


def cmd_gen(args) -> int:
    params = {key: getattr(args, key) for key in _COUPLINGS if getattr(args, key) is not None}
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


def _operands(args) -> tuple[DiagMatrix, DiagMatrix]:
    """A and B of matmul and simulate; one path given twice is read once."""
    a = diagio.load_matrix(args.a)
    return a, a if args.b == args.a else diagio.load_matrix(args.b)


def cmd_matmul(args) -> int:
    a, b = _operands(args)
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
    a, b = _operands(args)
    grid = _grid_setup(args)
    cache = SetAssocCache(grid.cache)
    events: list[dict] = []
    trace = events.append if args.trace else None
    product = diag_matmul(a, b)
    stage, counters, mem = simulate_product(a.dim, a.offsets, b.offsets, product.offsets,
                                            grid, cache, trace=trace)
    if args.trace:
        diagio.atomic_write(args.trace, "".join(json.dumps(e) + "\n" for e in events).encode())
    if args.product_out:
        diagio.save_matrix(product, args.product_out)
    report = build_report(f"simulate:{args.a}x{args.b}", grid.rows, grid.cols,
                          stage, counters, mem)
    _write_report(report, args.out)
    if args.out:
        print(f"plan coverage check ok; report written to {args.out}")
    return 0


def cmd_expm(args) -> int:
    if bool(args.h_file) == bool(args.model) or bool(args.model) != (args.qubits is not None):
        raise DomainError("give exactly one of --h-file or --model with --qubits")
    if args.model:
        h = gen_benchmark(args.model, args.qubits)
        workload = f"{args.model}-{args.qubits}"
    else:
        h = diagio.load_matrix(args.h_file)
        workload = f"expm:{args.h_file}"
    eps = DEFAULT_EPS if args.iters is None and args.eps is None else args.eps
    cfg = TaylorConfig(t=args.t, terms=args.iters, eps=eps)
    grid = _grid_setup(args)
    check_cuts(grid.cuts, h.dim)  # before the series, which plans only with the simulator
    u, records, *totals = expm(h, cfg, None if args.functional_only else grid, args.segments)
    if args.u_out:
        diagio.save_matrix(u, args.u_out)
    report = build_report(workload, grid.rows, grid.cols, *totals, records)
    report["segments"] = args.segments
    report["taylor_terms"] = len(records)
    _write_report(report, args.out)
    if args.csv:
        diagio.atomic_write(args.csv, iterations_to_csv(report["iterations"]).encode())
    if args.out:
        print(f"{workload}: {len(records)} terms; report written to {args.out}")
    return 0


def cmd_report(args) -> int:
    with open(args.input, encoding="utf-8") as fh, diagio.reading(args.input):
        report = json.load(fh)
    schema = report.get("schema") if isinstance(report, dict) else None
    if schema != 1:
        raise DomainError(f"{args.input}: unsupported report schema {schema!r}")
    try:
        text = report_to_csv(report)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise DomainError(f"{args.input}: malformed report: {type(exc).__name__} {exc}") from exc
    diagio.atomic_write(args.csv, text.encode())
    print(f"wrote {args.csv}")
    return 0


# -- wiring ----------------------------------------------------------------------


def _add_grid_flags(sub):
    helps = {"feed": "feed orders, e.g. a=desc,b=asc; asc and desc abbreviate",
             "cuts": "comma-separated row/col cut indices",
             "interleave": "pipelined column count for single-diagonal operands"}
    for owner, flags in _GRID_FLAGS.items():
        for dest, name in flags.items():
            typed = {} if dest in _TEXT_FLAGS else {"type": int, "default": getattr(owner(), name)}
            sub.add_argument(f"--{dest.replace('_', '-')}", help=helps.get(dest), **typed)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="diagsim",
                     description="diagonal-sparse SpMSpM kernels and grid model")
    parser.add_argument("--config", default=None, help="key=value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a benchmark Hamiltonian")
    gen.add_argument("model", help=" | ".join(MODELS))
    gen.add_argument("qubits", type=int)
    gen.add_argument("--out", required=True)
    gen.add_argument("--format", choices=list(diagio.FORMATS), default=None)
    for key, kind in _COUPLINGS.items():
        takers = " / ".join(model for model, (_, takes) in MODELS.items() if key in takes)
        gen.add_argument(f"--{key}", type=kind, help=f"{takers} coupling (the model's default)")
    gen.set_defaults(handler="cmd_gen")

    conv = sub.add_parser("convert", help="convert between matrix file formats")
    conv.add_argument("input")
    conv.add_argument("output")
    conv.add_argument("--in-format", choices=list(diagio.FORMATS), default=None)
    conv.add_argument("--out-format", choices=list(diagio.FORMATS), default=None)
    conv.set_defaults(handler="cmd_convert")

    mm = sub.add_parser("matmul", help="functional diagonal-space product")
    mm.add_argument("a")
    mm.add_argument("b")
    mm.add_argument("--out", required=True)
    mm.add_argument("--format", choices=list(diagio.FORMATS), default=None)
    mm.add_argument("--check", action="store_true",
                    help="verify against the dense oracle")
    mm.set_defaults(handler="cmd_matmul")

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
    simc.set_defaults(handler="cmd_simulate")

    ex = sub.add_parser("expm", help="truncated-series exponential through the stack")
    ex.add_argument("--h-file", default=None)
    ex.add_argument("--model", default=None)
    ex.add_argument("--qubits", type=int, default=None)
    ex.add_argument("--t", type=float, default=TaylorConfig.t)
    ex.add_argument("--iters", type=int, default=None, help="fixed term count")
    ex.add_argument("--eps", type=float, default=None,
                    help=f"series remainder threshold (default {DEFAULT_EPS:g})")
    ex.add_argument("--segments", type=int, default=1,
                    help="split t into this many repeated expansions")
    ex.add_argument("--functional-only", action="store_true",
                    help="skip the cycle model")
    ex.add_argument("--out", default=None)
    ex.add_argument("--csv", default=None, help="iteration records CSV path")
    ex.add_argument("--u-out", default=None, help="write the resulting operator")
    _add_grid_flags(ex)
    ex.set_defaults(handler="cmd_expm")

    rep = sub.add_parser("report", help="re-render a report JSON as CSV")
    rep.add_argument("input")
    rep.add_argument("--csv", required=True)
    rep.set_defaults(handler="cmd_report")
    return parser


def _apply_config(parser: argparse.ArgumentParser, path: str, given) -> None:
    """Make the config file's values the chosen subcommand's defaults.

    argparse then types them like command-line values, and explicit flags
    still win, dropping the config values of the flags they exclude
    (_EXCLUDES; given is the run parsed without the config).  Keys the
    subcommand lacks, a key given twice and malformed or unreadable files are
    usage errors.
    """
    try:
        values = _load_config(path)
    except (OSError, UnicodeDecodeError, DomainError) as exc:
        parser.error(f"config {path}: {exc}")
    for key, excluded in _EXCLUDES.items():
        if getattr(given, key, None) is not None:
            values = {k: val for k, val in values.items() if k not in excluded}
    sub = parser._subparsers._group_actions[0].choices[given.command]
    actions = {a.dest: a for a in sub._actions if a.dest != "help"}
    if values.keys() - actions.keys():
        parser.error(f"config keys {sorted(values.keys() - actions.keys())} "
                     f"are not flags of {given.command}")
    for key, val in values.items():
        if actions[key].nargs == 0:  # on/off flags
            if val not in ("true", "false"):
                parser.error(f"config key {key} must be true or false, got {val!r}")
            values[key] = val == "true"
    sub.set_defaults(**values)


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of every run without --config, built once per process and
    never changed: _apply_config sets defaults on a parser of its own run."""
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    if args.config:
        parser = build_parser()
        _apply_config(parser, args.config, args)
        args = parser.parse_args(argv)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # DiagMatrix names non-finite values
            # by name at call time, so that a cmd_* wrapped after the shared
            # parser was built still runs as wrapped
            return globals()[args.handler](args)
    except (ShapeError, DomainError, PlanError, GridCapacityError,
            ConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except VerificationError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return VERIFY_EXIT


if __name__ == "__main__":
    sys.exit(main())
