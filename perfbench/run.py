"""The turan-reg benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its
``src`` directory.  Every repetition runs in a fresh interpreter
(``probe.py``).  Set-up time is the median of several fresh imports.

--trace 0: runs untraced repetitions for S seconds and reports the
median of each end-to-end metric over them.  Times are rescaled to the
reference speed of speed.py, so that the drift of a shared host's speed
does not show as a change of the program.
--trace 1: runs rounds of one untraced and one traced repetition for S
seconds, and reports the median of each per-layer metric over the
traced repetitions, plus the tracing overhead: median traced over median
untraced wall_s.  Per-layer times are rescaled too.

A new repetition (or round) starts only if one as long as the longest so
far still ends within S seconds; the first always runs.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The lines before it print the
same figures for a reader, with the throughput under its own name
(classes_per_s or builds_per_s) and the failed share with its base.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import MODULES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170  # the whole run, so that it ends within 180 s
START = time.perf_counter()


def probe(workload, seed, *flags):
    """Run probe.py in a fresh interpreter and return its report; exit
    the benchmark if it fails or the run gets too long."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, str(HERE / "probe.py"), "--workload", workload, "--seed", str(seed)]
    # own session, so that a timeout also stops the probe's worker pool
    proc = subprocess.Popen(
        cmd + list(flags),
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=RUN_LIMIT_S - (time.perf_counter() - START))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"{workload}: run exceeded {RUN_LIMIT_S} s")
    if proc.returncode != 0:
        sys.exit(f"{workload}: repetition failed\n{err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(reps, setups):
    median = statistics.median
    return {
        "setup_s": _metric(median(setups), "s"),
        "wall_s": _metric(median(r["wall_s"] for r in reps), "s"),
        "cpu_s": _metric(median(r["cpu_s"] for r in reps), "s"),
        "peak_rss_mb": _metric(median(r["peak_rss_mb"] for r in reps), "MiB"),
        "ops_per_s": _metric(median(r["ops"] / r["wall_s"] for r in reps), "1/s"),
    }


def per_layer(untraced, traced):
    """Median of each layer metric over the traced repetitions."""
    metrics = {
        name: _metric(statistics.median(r["layers"][name]["value"] for r in traced), first["unit"])
        for name, first in traced[0]["layers"].items()
    }
    plain = statistics.median(r["wall_s"] for r in untraced)
    with_spans = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.untraced_wall_s"] = _metric(plain, "s")
    metrics["trace.traced_wall_s"] = _metric(with_spans, "s")
    metrics["trace.overhead_ratio"] = _metric(with_spans / plain, "ratio")
    return metrics


def repeat(workload, seed, seconds, flag_sets):
    """Rounds of repetitions, one per flag set, for ``seconds``: a round
    starts only if one as long as the longest so far still fits."""
    rounds = []
    start = time.perf_counter()
    longest = 0.0
    while not rounds or time.perf_counter() - start + longest <= seconds:
        t0 = time.perf_counter()
        rounds.append([probe(workload, seed, *flags) for flags in flag_sets])
        longest = max(longest, time.perf_counter() - t0)
    return [list(reps) for reps in zip(*rounds)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "turan_reg" / "__init__.py").is_file():
        sys.exit(f"no turan_reg sources under {ROOT / 'src'}: run from a checkout of the repository")

    probe(args.workload, args.seed, "--setup-only")  # writes the bytecode caches
    setups = [
        probe(args.workload, args.seed, "--setup-only")["setup_s"]
        for _ in range(0 if args.trace else SETUP_SAMPLES)
    ]
    if args.trace:
        untraced, traced = repeat(args.workload, args.seed, args.seconds, [(), ("--trace",)])
    else:
        (untraced,) = repeat(args.workload, args.seed, args.seconds, [()])
        traced = []

    reps = untraced + traced
    problems = [p for r in reps for p in r["problems"]]
    if any(r["gen_stats"] != reps[0]["gen_stats"] for r in reps):
        problems.append("GenStats counts differ between repetitions")
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if args.trace:
        metrics = per_layer(untraced, traced)
        if traced[0]["missing"]:
            print("names not found, their metrics are absent: " + ", ".join(traced[0]["missing"]),
                  file=sys.stderr)
    else:
        metrics = end_to_end(untraced, setups)

    unit_name = "builds_per_s" if args.workload == "builders-large" else "classes_per_s"
    print(f"workload {args.workload}  seed {args.seed}  repetitions {len(reps)}  "
          f"set-up samples {len(setups)}  trace {args.trace}")
    for name, m in metrics.items():
        label = unit_name if name == "ops_per_s" else name
        print(f"  {label:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_share':<40} {failed / attempted:>14.6g} ({failed} failed of {attempted} attempted)")
    for label, group in (("untraced", untraced), ("traced", traced)):
        if group:
            print(f"  {'raw wall s of each ' + label + ' repetition':<40} "
                  + " ".join(f"{r['raw_wall_s']:.3f}" for r in group))
    print(f"  {'speed factor of each repetition':<40} "
          + " ".join(f"{r['speed_factor']:.3f}" for r in reps))
    for p in problems[:20]:
        print(f"  check failed: {p}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
