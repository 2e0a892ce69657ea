"""Run one benchmark workload, or all of them, and print the result.

    python3 bench/run.py --workload model-sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1

A run sets up (interpreter, imports, config load, inputs from the seed),
repeats whole rounds of the workload's program calls until the next
round would end after --seconds, then checks every round's outputs
against the benchmark's own reference values. Round and set-up times
are each scaled for the machine's speed around them (see speed.py). With --trace 0
it reports the end-to-end metrics; with --trace 1 it alternates
untraced and traced rounds and reports the per-layer metrics. The last line of standard
output is one JSON object: correct, attempted, failed and metrics. The
full result (environment, round times, failure labels, spans) goes to
--out/<workload>-seed<seed>-trace<trace>.json.

The program is imported from src/ next to this directory; without it the
run exits with code 1 and prints no result.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# Set-up is timed in fresh processes, some before the rounds and some
# after, so that the median samples more than one moment of the run.
SETUP_PROBES = (2, 3)
END_TO_END = {"round_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _import_program():
    if not (SRC / "minwork" / "__init__.py").is_file():
        sys.exit(f"error: the program is not at {SRC / 'minwork'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import minwork

    if Path(minwork.__file__).resolve().parent != SRC / "minwork":
        sys.exit(f"error: imported minwork from {minwork.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "threads": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def probe_setup(workload_name: str, seed: int) -> None:
    """What a run does before its first round; timed from outside."""
    from tracing import program_api
    from workloads import WORKLOADS

    WORKLOADS[workload_name].setup(program_api(), ROOT, seed)


def setup_seconds(workload_name: str, seed: int, probes: int, speed) -> tuple:
    """Wall and scaled times of fresh processes that only set up, one
    after another, each between two samples of the speed kernel."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup", "--workload", workload_name, "--seed", str(seed)]
    walls, scaled = [], []
    speed.sample()
    for _ in range(probes):
        _, wall, scale = speed.timed(lambda: subprocess.run(cmd, check=True, timeout=120))
        walls.append(wall)
        scaled.append(scale)
    return walls, scaled


def measure(workload, api, inputs, refs, seconds: float, speed, tracer=None):
    """Whole rounds until the next one would end after `seconds`; with a
    tracer, odd rounds are traced and there are at least two rounds.
    Each round runs between two samples of the speed kernel.

    Outputs are kept as [output, rounds] with equal consecutive outputs
    merged, so the memory a run holds does not grow with its rounds.
    """
    times, scaled, traced, outputs = [], [], [], []
    speed.sample()
    start = time.perf_counter()
    while True:
        on = tracer is not None and len(times) % 2 == 1
        if tracer is not None:
            tracer.enabled, tracer.round = on, len(times)
        out, wall, scale = speed.timed(lambda: workload.run_round(api, inputs, refs))
        times.append(wall)
        scaled.append(scale)
        if outputs and outputs[-1][0] == out:
            outputs[-1][1] += 1
        else:
            outputs.append([out, 1])
        traced.append(on)
        if tracer is not None:
            tracer.enabled = False
        elapsed = time.perf_counter() - start
        if len(times) >= (2 if tracer is not None else 1) and elapsed + elapsed / len(times) > seconds:
            return times, scaled, traced, outputs


def run_workload(args) -> dict:
    from speed import Speed
    from tracing import Tracer, layer_metrics, program_api
    from workloads import WORKLOADS, Tally

    workload = WORKLOADS[args.workload]
    speed = Speed()
    setup, setup_scaled = setup_seconds(args.workload, args.seed, SETUP_PROBES[0], speed)
    tracer = Tracer() if args.trace else None
    restore = tracer.install() if tracer else None
    api = program_api(tracer)
    inputs = workload.setup(api, ROOT, args.seed)
    refs = workload.reference(inputs)
    times, rounds_scaled, traced, outputs = measure(workload, api, inputs, refs, args.seconds, speed, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if restore:
        restore()
    walls, scaled = setup_seconds(args.workload, args.seed, SETUP_PROBES[1], speed)
    setup += walls
    setup_scaled += scaled

    tally = Tally()
    for out, rounds in outputs:
        checked = Tally()
        workload.check(inputs, refs, out, checked)
        tally.add(checked, rounds)

    if args.trace:
        spans = tracer.spans
        traced_s = [t for t, on in zip(rounds_scaled, traced) if on]
        untraced_s = [t for t, on in zip(rounds_scaled, traced) if not on]
        metrics = layer_metrics(spans, traced_s, untraced_s)
    else:
        values = {"round_s": median(rounds_scaled), "setup_s": median(setup_scaled), "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    summary = {"correct": not tally.errors, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "round_wall_s": times,
        "round_s": rounds_scaled,
        "speed_kernel_s": speed.samples,
        "traced": traced,
        "distinct_outputs": len(outputs),
        "setup_wall_s": setup,
        "setup_s": setup_scaled,
        "peak_rss_mb": peak_rss_mb,
        "failures": dict(tally.failures),
        "errors": tally.errors,
        **summary,
    }
    if args.trace:
        detail["spans"] = tracer.records()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail) + "\n")

    print(f"{args.workload} seed={args.seed} rounds={len(times)} attempted={tally.attempted} failed={tally.failed} {dict(tally.failures)}")
    for message in tally.errors[:20]:
        print(f"CHECK FAILED: {message}")
    print(f"wrote {path}")
    return summary


def run_all(args) -> int:
    """Every workload in its own process, one at a time."""
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", args.out]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exit code {done.returncode}\n{done.stderr}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:28s} {m['value']:14.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", help="workload name, or all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=str(BENCH / "out"), help="directory for the full result files")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
