"""Benchmark of the tpspp rectifier: one closed-loop client, three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload net_image --seed 1 --seconds 20 --trace 0

Workloads are defined in workloads.py and named in BENCHMARK.json. The
client sends one request, waits for it, checks its output, then sends the
next. With --trace 0 the run reports the end-to-end metrics; with
--trace 1 it alternates untraced and traced rotation cycles and reports
the per-layer metrics of tracer.py. --smoke runs two cycles and exits
non-zero unless every metric BENCHMARK.json names is emitted with its unit.

Standard output ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
The environment and a readable summary are printed above it.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

# OpenBLAS reads its thread count once, when numpy loads, so it is fixed
# before workloads.py imports numpy. One thread keeps a single client steady.
BLAS_THREADS = 1
if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
WORK_ROOT = workloads.ROOT / ".perfbench_work"
SETUP_PROBES = 5     # cold set-ups per run; setup_s is their median
MIN_CYCLES = 2       # a traced run needs an untraced and a traced cycle; smoke runs only these
SETUP_ONLY = ("fileio.load_weights",)  # traced over the set-up: no request calls it


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "library default"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def probe_setup(name, seed, workdir):
    """Seconds of one cold set-up, in a fresh interpreter."""
    out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), name, str(seed),
                          str(workdir)], capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def closed_loop(workload, seconds, min_cycles, trace=None):
    """Send requests one at a time, in whole rotation cycles, for `seconds`.

    With a tracer, odd cycles run traced. Returns the number of requests,
    the latencies in seconds of those that returned, keyed by whether they
    were traced, and one message per failed request. A request fails when
    it raises or when its check finds a problem.
    """
    latencies = {False: [], True: []}
    failures = []
    deadline = time.perf_counter() + seconds
    i = cycles = 0
    while cycles < min_cycles or time.perf_counter() < deadline:
        traced = trace is not None and cycles % 2 == 1
        with trace.installed() if traced else nullcontext():
            for _ in range(workload.cycle):
                req = workload.request(i)
                try:
                    start = time.perf_counter()
                    with trace.span() if traced else nullcontext():
                        out = workload.run(req)
                    latencies[traced].append(time.perf_counter() - start)
                    problems = workload.check(req, out)
                except Exception as exc:  # counted as a failed request, not fatal
                    problems = [f"raised {exc!r}"]
                if problems:
                    failures.append(f"request {i}: " + "; ".join(problems[:3]))
                i += 1
        cycles += 1
    return i, latencies, failures


def end_to_end(latencies, setup_s):
    ms = [1000.0 * s for s in latencies]
    return {
        "latency_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
        "throughput_rps": (1000.0 / statistics.fmean(ms), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }


def per_layer(trace, setup_trace, latencies):
    """Per traced request: calls, ms and self ms of each traced function, and
    the counted work. Each count is one division of exact integers, so it
    repeats to the last digit between runs with the same whole cycles."""
    traced = [1000.0 * s for s in latencies[True]]
    untraced = [1000.0 * s for s in latencies[False]]
    n = len(traced)
    metrics = {}
    for key, stats in trace.stats.items():
        per = n
        if key in SETUP_ONLY:
            stats, per = setup_trace.stats[key], 1
        metrics[f"{key}.calls"] = (stats.calls / per, "count")
        metrics[f"{key}.ms"] = (1000.0 * stats.seconds / per, "ms")
        metrics[f"{key}.self_ms"] = (1000.0 * stats.self_seconds / per, "ms")
    conv = trace.stats["tensor.conv2d"]
    metrics["tensor.conv2d.gflop"] = (conv.work / (1e9 * n), "GFLOP")
    metrics["tensor.conv2d.gflop_per_s"] = (conv.work / 1e9 / conv.seconds if conv.seconds else 0.0,
                                            "GFLOP/s")
    metrics["warp.build_sampling_grid.mk_mb"] = (
        trace.stats["warp.build_sampling_grid"].work / (1e6 * n), "MB")
    metrics["fileio.import_grid_json.mb"] = (
        trace.stats["fileio.import_grid_json"].work / (1e6 * n), "MB")
    metrics["trace.request_ms"] = (statistics.fmean(traced), "ms")
    metrics["trace.traced_p50_ms"] = (statistics.median(traced), "ms")
    metrics["trace.untraced_p50_ms"] = (statistics.median(untraced), "ms")
    metrics["trace.overhead_ms"] = (statistics.median(traced) - statistics.median(untraced), "ms")
    return metrics


def run(name, seed, seconds, trace, smoke=False):
    """One benchmark run; returns (result dict, summary lines)."""
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        workload = workloads.WORKLOADS[name](seed, workdir)
        workload.prepare()
        if smoke:
            seconds = 0
        if trace:
            setup_trace, layer_trace = tracer.Tracer(), tracer.Tracer()
            with setup_trace.installed(), setup_trace.span():
                workload.setup()
            attempted, latencies, failures = closed_loop(workload, seconds, MIN_CYCLES, layer_trace)
            metrics = per_layer(layer_trace, setup_trace, latencies)
        else:
            probes = [probe_setup(name, seed, workdir) for _ in range(1 if smoke else SETUP_PROBES)]
            workload.setup()
            attempted, latencies, failures = closed_loop(workload, seconds, MIN_CYCLES)
            metrics = end_to_end(latencies[False], statistics.median(probes))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    summary = [f"{name}: {attempted} requests, {len(failures)} failed, "
               f"error_rate {len(failures) / attempted:.4g}"]
    summary += [f"FAIL {msg}" for msg in failures[:5]]
    summary += [f"  {k:42s} {v:14.6g} {u}" for k, (v, u) in metrics.items()]
    if not trace:
        # printed only: the median is the least steady figure on a host whose
        # speed shifts in phases (perfbench/NOTES.md, "Noise on this host")
        p50 = 1000.0 * statistics.median(latencies[False])
        summary.append(f"  {'latency_p50_ms (not a metric)':42s} {p50:14.6g} ms")
    return result, summary


def check_metric_names(result, trace):
    """Metrics BENCHMARK.json names that the result lacks, emits with another
    unit, or emits without their being named."""
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    named = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    return sorted(f"{name} [{unit}]" for name, unit in set(named.items()) ^ set(emitted.items()))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="two cycles only; fail unless every metric is emitted with its unit")
    args = parser.parse_args(argv)

    print(json.dumps({"env": environment(args.seed), "workload": args.workload,
                      "seconds": args.seconds, "trace": args.trace}))
    result, summary = run(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    print("\n".join(summary))
    if args.smoke:
        missing = check_metric_names(result, args.trace)
        if missing:
            print(f"smoke: metrics not as BENCHMARK.json names them: {missing}", file=sys.stderr)
            return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
