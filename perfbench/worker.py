"""Benchmark worker: one fresh process per measurement, started by run.py.

    python3 perfbench/worker.py SPEC.json

The spec names the workload, the mode and the files.  The worker
imports gradedq, builds the workload's charts and theta, prints "ready"
(the parent times spawn -> ready as set-up), and then:

* mode "setup": exits;
* mode "loop": runs jobs as a closed loop with one client until
  `seconds` have passed and at least `min_jobs` jobs are done;
* mode "trace": runs a fixed list of jobs untraced, then traced, then
  a prefix traced again and one job under the profiler audit.

Results go to the spec's `out_file` as JSON.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed


def run_job(run, ctx, job) -> dict:
    try:
        return run(ctx, job)
    except Exception as exc:  # a crashing job is a wrong verdict, not a crash
        return {"error": f"{type(exc).__name__}: {exc}"}


def closed_loop(run, ctx, lines, seconds, min_jobs) -> dict:
    """Jobs stay JSON text until their turn, so the pool adds little to RSS.

    The host-speed reference runs before the first job and after every
    job, so job i lies between references i and i + 1 (see speed.py)."""
    latencies, verdicts = [], []
    speed.warm_up()
    refs = [speed.reference_s()]
    start = time.perf_counter()
    i = 0
    while True:
        job = json.loads(lines[i % len(lines)])
        t0 = time.perf_counter()
        verdicts.append(run_job(run, ctx, job))
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        refs.append(speed.reference_s())
        i += 1
        if time.perf_counter() - start >= seconds and i >= min_jobs:
            return {"latencies_s": latencies, "refs_s": refs, "verdicts": verdicts,
                    "wall_s": time.perf_counter() - start}


def subprocess_ms(argv, env, repeat) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, check=True, capture_output=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def traced(wl, run, ctx, jobs, spec) -> dict:
    from tracing import Tracer, layer_metrics

    env = dict(os.environ, PYTHONPATH=spec["src"])
    repeat = spec["start_repeat"]
    interp_ms = subprocess_ms([sys.executable, "-c", "pass"], env, repeat)
    import_ms = subprocess_ms([sys.executable, "-c", "import gradedq.cli"], env,
                              repeat) - interp_ms
    cli_p50_ms = 0.0  # subprocess job p50, for the start + import share
    if wl.name == "cli":
        lat = []
        for job in jobs:
            t0 = time.perf_counter()
            run_job(wl.run, ctx, job)
            lat.append(time.perf_counter() - t0)
        cli_p50_ms = statistics.median(lat) * 1e3

    # best of two untraced passes, so warm-up does not count as overhead
    untraced_s = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        untraced = [run_job(run, ctx, job) for job in jobs]
        untraced_s = min(untraced_s, time.perf_counter() - t0)

    tracer = Tracer()
    tracer.install()
    verdicts = []
    t0 = time.perf_counter()
    for i, job in enumerate(jobs):
        tracer.start_job(i)
        verdicts.append(run_job(run, ctx, job))
    traced_s = time.perf_counter() - t0
    first = tracer.take()

    again = range(min(len(jobs), spec["repeat_jobs"]))
    for i in again:
        tracer.start_job(i)
        run_job(run, ctx, jobs[i])
    second = tracer.take()
    counts_repeat = (tracer.per_job_counts(first, again)
                     == tracer.per_job_counts(second, again))
    bypassed = tracer.audit(lambda: run_job(run, ctx, jobs[0]))
    missed, absent = tracer.missed_sites(first, wl.name)
    tracer.write_spans(first, spec["spans_file"])

    functions = tracer.functions(first)
    trials = sum(max(v.get("trials") or [0]) for v in verdicts)
    metrics = layer_metrics(tracer, first, functions, trials, traced_s)
    metrics["cli.interp_start_ms"] = interp_ms
    metrics["cli.import_ms"] = import_ms
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    metrics["share.cli_start_import"] = \
        (interp_ms + import_ms) / cli_p50_ms if cli_p50_ms else 0.0
    top = sorted(functions.items(), key=lambda kv: -kv[1][2])[:12]
    return {
        "verdicts": untraced, "verdicts_traced": verdicts,
        "untraced_s": untraced_s, "traced_s": traced_s, "metrics": metrics,
        "top_self": [[name, row[0], row[2] / 1e6] for name, row in top],
        "spans": len(first["spans"]) // 6,
        "selfcheck": {"counts_repeat": counts_repeat, "bypassed": bypassed,
                      "sites_missed": missed, "sites_absent": absent,
                      "verdicts_equal": untraced == verdicts},
    }


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    from workloads import WORKLOADS

    wl = WORKLOADS[spec["workload"]]
    ctx = wl.setup(spec["meta"])
    import gradedq
    if not Path(gradedq.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        print(f"gradedq resolves to {gradedq.__file__}, outside {spec['src']}",
              file=sys.stderr)
        return 3
    print("ready", flush=True)
    if spec["mode"] == "setup":
        return 0

    lines = Path(spec["jobs_file"]).read_text(encoding="utf-8").splitlines()
    if spec["mode"] == "loop":
        result = closed_loop(wl.run, ctx, lines, spec["seconds"], spec["min_jobs"])
    else:
        run = wl.run_inprocess if wl.name == "cli" else wl.run
        result = traced(wl, run, ctx, [json.loads(line) for line in lines], spec)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["maxrss_children_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # without a BACKEND switch the pure-Python kernel is the only one
    result["backend"] = getattr(gradedq, "BACKEND", "python")
    result["gradedq_file"] = gradedq.__file__
    Path(spec["out_file"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
