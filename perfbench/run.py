"""Benchmark of diagsim: closed-loop passes of CLI commands, checked outputs.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 20 --trace 0

Run from the repository root.  One client runs the workload's commands back to
back through ``diagsim.cli.main(argv)`` in this process, starting pass after
pass until ``--seconds`` have gone by, so the last pass may end later.
With ``--trace 0`` it prints the end-to-end metrics.  With ``--trace 1`` it
alternates untraced and traced passes and prints the per-layer metrics plus
the tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Timings are reported raw and rescaled to a reference host speed measured by
``hostspeed`` while they run; the bounded metrics are the rescaled ones.

Scratch files live in ``.bench_work/`` at the root: a per-run directory that
is removed at exit, the modeled-figure record of each (source, workload,
seed), against which later runs are compared, and the spans of traced runs.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 5

END_TO_END = [("setup_s", "s"), ("wall_norm_s", "s"), ("peak_rss_mb", "MB")]
# per-layer metrics that come from the reports and the pass timings, not spans
RUN_PER_LAYER = [("model.cycles", "cycles", "lower"), ("model.energy_uj", "uJ", "lower"),
                 ("host.wall_s", "s", "lower"), ("host.probe_s", "s", "lower"),
                 ("trace.overhead", "ratio", "lower")]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--write-golden", action="store_true",
                   help=f"store the modeled figures of seed {DEFAULT_SEED} as the golden record")
    return p.parse_args(argv)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "none"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or "none"


def time_setup(workload: str, seed: int, workdir: Path) -> tuple[float, float]:
    """Raw and normalized wall time of a fresh process that imports diagsim
    and writes the inputs; the host speed is probed just before and after."""
    before = hostspeed.probe_block()
    start = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "make_inputs.py"), workload, str(seed),
                    str(workdir)], check=True, timeout=120)
    seconds = time.perf_counter() - start
    speed = (before + hostspeed.probe_block()) / 2
    return seconds, stats.normalized(seconds, speed, hostspeed.PROBE_REF_S)


def run_pass(plan, cli_main) -> tuple[float, float, float, list[str]]:
    """One timed pass of the command sequence, then its checks (untimed).

    Returns the pass's raw seconds (probe samples subtracted), its normalized
    seconds, the mean probe time, and one failure message per failed command.
    """
    codes = []
    sink = io.StringIO()
    with hostspeed.Sampler() as sampler:
        start = time.perf_counter()
        for cmd in plan.commands:
            err = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
                try:
                    code = cli_main(cmd.argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # a traceback is a failed command, not a dead run
                    code = f"{type(exc).__name__}: {exc}"
            codes.append((code, err.getvalue().strip()))
        raw = time.perf_counter() - start - sum(sampler.samples)
    samples = sampler.samples or [hostspeed.probe_block()]
    speed = sum(samples) / len(samples)
    failures = []
    for cmd, (code, err) in zip(plan.commands, codes):
        if code != 0:
            failures.append(f"{cmd.argv[0]}: exit {code} {err}".strip())
            continue
        try:
            msg = cmd.check()
        except (OSError, ValueError, KeyError) as exc:
            msg = f"unreadable output: {type(exc).__name__}: {exc}"
        if msg:
            failures.append(f"{' '.join(cmd.argv[:2])}: {msg}")
    return raw, stats.normalized(raw, speed, hostspeed.PROBE_REF_S), speed, failures


def digest(figures: list[dict]) -> str:
    return hashlib.sha256(json.dumps(figures, sort_keys=True).encode()).hexdigest()


def compare_figures(records, workload: str, seed: int, src: str, write_golden: bool):
    """The run's modeled figures, their digest, the problems found, a golden note.

    ``records`` holds each pass's figures, None for a pass with failures.
    Figures must agree between the passes of this run, traced or not, and
    with every earlier run of the same source, workload and seed.
    """
    figs = next((r for r in records if r is not None), [])
    fig_digest = digest(figs)
    problems = []
    if any(r is not None and r != figs for r in records):
        problems.append("modeled figures differ between passes of one run")
    record = WORK / "figures" / f"{src[:16]}-{workload}-s{seed}.json"
    if record.exists():
        if json.loads(record.read_text())["digest"] != fig_digest:
            problems.append(f"modeled figures differ from an earlier run of this "
                            f"source and seed ({record.name})")
    elif any(r is not None for r in records):
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps({"digest": fig_digest, "figures": figs},
                                     indent=1, sort_keys=True))
    note = "not compared (seed is not the default)"
    if seed == DEFAULT_SEED:
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        if write_golden and not problems and None not in records:
            golden[workload] = {"digest": fig_digest, "figures": figs}
            GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        stored = golden.get(workload, {}).get("digest")
        note = ("match" if stored == fig_digest else
                "DIFFERS from perfbench/golden.json" if stored else "no golden record")
    return figs, fig_digest, problems, note


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "diagsim" / "__init__.py").is_file():
        print(f"error: no diagsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import workloads
    from tracer import Tracer, catalog
    from diagsim.cli import main as cli_main
    from diagsim.spmspm import multiply_count

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    src = source_digest()
    workdir = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    passes = {False: [], True: []}  # traced? -> [(raw s, normalized s, probe s)]
    failures, records = [], []
    try:
        setups = [time_setup(args.workload, args.seed, workdir) for _ in range(SETUP_REPEATS)]
        plan = workloads.build(args.workload, args.seed, str(workdir))
        begin = time.perf_counter()
        while True:
            traced = tracer is not None and len(passes[True]) < len(passes[False])
            gc.collect()
            if traced:
                tracer.pass_id = len(passes[True])
                tracer.install()
            try:
                raw, norm, speed, failed = run_pass(plan, cli_main)
            finally:
                if traced:
                    tracer.uninstall()
            passes[traced].append((raw, norm, speed))
            failures += failed
            records.append(workloads.figures(plan.reports) if not failed else None)
            if (time.perf_counter() - begin >= args.seconds
                    and (tracer is None or passes[True])):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    figs, fig_digest, problems, golden_note = compare_figures(
        records, args.workload, args.seed, src, args.write_golden)
    problems = failures + problems
    attempted = (len(passes[False]) + len(passes[True])) * len(plan.commands)
    setup_raw = stats.median([r for r, _ in setups])
    setup_s = stats.median([n for _, n in setups])
    walls = [r for r, _, _ in passes[False]]
    q1, wall_norm_s, q3 = stats.quartiles([n for _, n, _ in passes[False]])
    probe_s = stats.median([p for *_, p in passes[False] + passes[True]])
    multiplies = sum(f["events"]["multiplies"] for f in figs)
    model_cycles = sum(f["serialized_total_cycles"] for f in figs)
    model_energy_uj = sum(f["energy_pj"] for f in figs) / 1e6

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes[False])}+{len(passes[True])}traced "
          f"commands/pass={len(plan.commands)} python={platform.python_version()} "
          f"numpy={numpy.__version__} scipy={scipy.__version__} nproc={os.cpu_count()} "
          f"commit={git_commit()} src={src[:16]}")
    print(f"  host probe       {probe_s * 1e3:.4f} ms median over passes "
          f"(reference {hostspeed.PROBE_REF_S * 1e3:.4f} ms)")
    print(f"  setup_s          {setup_s:.4f} s normalized, {setup_raw:.4f} s raw "
          f"(median of {len(setups)} fresh processes)")
    print(f"  wall_norm_s      {wall_norm_s:.4f} s (median of {len(walls)} untraced passes; "
          f"q1 {q1:.4f}, q3 {q3:.4f})")
    print(f"  wall_s           {stats.median(walls):.4f} s raw (passes "
          f"{' '.join(f'{w:.3f}' for w in walls)})")
    if figs:
        print(f"  mults_per_s      {multiplies / stats.median(walls):.1f} 1/s raw "
              f"({multiplies} modeled multiplies/pass)")
        print(f"  model_cycles     {model_cycles} cycles")
        print(f"  model_energy_uj  {model_energy_uj:.6f} uJ")
    else:
        print("  mults_per_s, model_cycles, model_energy_uj: n/a (no grid model runs)")
    print(f"  peak_rss_mb      {peak_rss_mb:.1f} MB")
    print(f"  fail_frac        {stats.fail_frac(attempted, len(failures)):.4f} "
          f"({len(failures)} of {attempted} commands failed)")
    print(f"  modeled figures  sha256 {fig_digest[:16]}; golden: {golden_note}")
    for msg in problems[:20]:
        print(f"  FAIL {msg}")

    if tracer is None:
        values = {"setup_s": setup_s, "wall_norm_s": wall_norm_s, "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        per = tracer.per_layer(len(passes[True]), multiply_count)
        traced_norm = stats.median([n for _, n, _ in passes[True]])
        per.update({"model.cycles": model_cycles, "model.energy_uj": model_energy_uj,
                    "host.wall_s": stats.median(walls), "host.probe_s": probe_s,
                    "trace.overhead": traced_norm / wall_norm_s})
        print(f"  trace.overhead   {per['trace.overhead']:.4f} (median normalized traced pass "
              f"{traced_norm:.4f} s over {len(passes[True])} passes / untraced)")
        metrics = {name: {"value": per[name], "unit": unit}
                   for name, unit, _better in catalog() + RUN_PER_LAYER}
        with open(WORK / f"spans-{args.workload}-s{args.seed}.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
