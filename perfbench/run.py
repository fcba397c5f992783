"""Run one ecov benchmark workload and print its metrics.

    python3 perfbench/run.py --workload census|invariants|large-groups \
        --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from the source tree next to
this directory (src/ecov), never from an installed copy.  The run repeats
whole rounds of the workload until S seconds of timed work are done, checks
every round's outputs against theory, and prints one JSON object as the
last line of stdout.  With --trace 0 it holds the end-to-end metrics of
BENCHMARK.json; with --trace 1 it runs untraced rounds and then traced
rounds, and holds the per-layer metrics.  Spans of a traced run are written
to .bench_out/ at the repository root.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 9


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("census", "invariants", "large-groups"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="stop after set-up and print 'ready' (used to time set-up)")
    return ap.parse_args(argv)


def _import_program():
    """Import ecov from ROOT/src; exit non-zero if it is not there."""
    if not (SRC / "ecov" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ecov source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import ecov

    if Path(ecov.__file__).resolve().parent != SRC / "ecov":
        sys.exit(f"perfbench: imported ecov from {ecov.__file__}, not from {SRC}")


def _setup_seconds(args) -> float:
    """Median time from starting a fresh process to the end of its set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            sys.exit(f"perfbench: set-up probe failed (exit {proc.returncode})")
        samples.append(elapsed)
    return statistics.median(samples)


def _run_rounds(workload, seconds: float, recorder=None):
    """Whole rounds until `seconds` of timed work; each round is checked."""
    rounds, errors, timed = [], [], 0.0
    while not rounds or timed < seconds:
        gc.collect()
        if recorder is None:
            rnd = workload.run_round()
        else:
            with recorder.installed():
                rnd = workload.run_round()
        timed += rnd.wall
        errors += workload.check(rnd)
        rounds.append(rnd)
    return rounds, errors


def _end_to_end(rounds, setup_s: float) -> dict[str, float]:
    latencies = [x for r in rounds for x in r.latencies]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(r.wall for r in rounds),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p98_ms": statistics.quantiles(latencies, n=50, method="inclusive")[48] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    import spans
    from workloads import WORKLOADS

    workdir = OUT / f"{args.workload}-{args.seed}"
    workload = WORKLOADS[args.workload](args.seed, workdir)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}

    if args.trace:
        plain, plain_errors = _run_rounds(workload, args.seconds)
        recorder = spans.Recorder()
        traced, traced_errors = _run_rounds(workload, args.seconds, recorder)
        rounds, errors = plain + traced, plain_errors + traced_errors
        metrics = recorder.metrics(
            sum(r.wall for r in traced), statistics.median(r.wall for r in plain), len(traced)
        )
        OUT.mkdir(exist_ok=True)
        recorder.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        setup_s = _setup_seconds(args)
        rounds, errors = _run_rounds(workload, args.seconds)
        metrics = _end_to_end(rounds, setup_s)
    if set(metrics) != set(units):
        sys.exit(f"perfbench: metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")

    failures = [f for r in rounds for f in r.failures]
    attempted = sum(len(r.latencies) for r in rounds)
    print(f"{args.workload}: seed {args.seed}, {len(rounds)} round(s), "
          f"{len(rounds[0].latencies)} operations per round")
    for name in units:
        print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    print(f"  attempted {attempted}, failed {len(failures)}")
    for line in sorted(set(failures)):
        print(f"  failed: {line}")
    for line in errors:
        print(f"WRONG: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
