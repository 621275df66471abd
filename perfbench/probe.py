"""One repetition of one workload in a fresh interpreter.

    python3 perfbench/probe.py --workload NAME --seed N [--trace] [--setup-only]

Times the import of ``turan_reg`` and the modules the workload calls
(set-up), then the workload's call sequence, then checks its outputs.
Prints one JSON object.  ``run.py`` starts this script once per
repetition so that every repetition pays its own set-up and has its own
peak RSS.

Times are reported raw and rescaled to the reference speed of
``speed.py``: the set-up by reference slices timed just before and after
the import, the call by slices sampled while it runs.  In a traced call
the spans are timed with a clock that leaves the samples out, and the
per-layer times are rescaled by the same factor.
"""

import argparse
import importlib
import json
import os
import resource
import sys
import time

from speed import REF_S, SpeedSampler, time_slice

# The turan_reg modules each workload calls; importing them is the set-up.
MODULES = {
    "exr-k3-n11": ("search",),
    "copies-c5-n9": ("search",),
    "copies-c5-n9-jobs2": ("search", "parallel"),
    "builders-large": ("constructions",),
}


def _cpu():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb():
    # ru_maxrss is in KiB on Linux; children: the largest reaped child
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    time_slice()  # warm-up
    before = [time_slice() for _ in range(3)]
    t0 = time.perf_counter()
    package = importlib.import_module("turan_reg")
    for name in MODULES[args.workload]:
        importlib.import_module(f"turan_reg.{name}")
    raw_setup_s = time.perf_counter() - t0
    after = [time_slice() for _ in range(3)]
    setup_s = raw_setup_s * REF_S / sorted(before + after)[3]

    src = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "src"))
    if not os.path.realpath(package.__file__).startswith(src + os.sep):
        sys.exit(f"turan_reg imported from {package.__file__}, not from {src}")
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return

    from tracer import Tracer
    from workloads import WORKLOADS, build_failures

    workload = WORKLOADS[args.workload]
    sampler = SpeedSampler(in_children=workload.jobs > 1)
    tracer = None
    if args.trace:
        tracer = Tracer(clock=sampler.clock)
        tracer.install()
    cpu0 = _cpu()
    w0 = time.perf_counter()
    with sampler:
        out = workload.run(args.seed)
    raw_wall_s = time.perf_counter() - w0
    raw_cpu_s = _cpu() - cpu0
    peak_rss_mb = _peak_rss_mb()
    factor, own_slices, child_slices = sampler.result()
    if factor is None:
        sys.exit(f"{args.workload}: no speed sample was taken during the call")
    raw_wall_s -= own_slices
    raw_cpu_s -= own_slices + child_slices

    failed, problems = workload.check(out)
    stats = out.result.stats if out.result is not None else None
    report = {
        "setup_s": setup_s,
        "raw_wall_s": raw_wall_s,
        "wall_s": raw_wall_s * factor,
        "cpu_s": raw_cpu_s * factor,
        "speed_factor": factor,
        "peak_rss_mb": peak_rss_mb,
        "ops": out.ops,
        "attempted": out.attempted,
        "failed": failed,
        "problems": problems,
        "gen_stats": stats
        and {"classes": stats.classes, "nodes": stats.nodes, "pruned": stats.pruned},
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics(
            stats,
            build_failures(out) if out.builds else None,
            workload.jobs,
            factor=factor,
            worker_sample_cpu=child_slices,
        )
        report["missing"] = tracer.missing
    print(json.dumps(report, sort_keys=True))


if __name__ == "__main__":
    main()
