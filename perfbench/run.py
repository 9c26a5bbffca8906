"""gradedq benchmark: time-to-verdict on four workloads, layer by layer.

    python3 perfbench/run.py --workload courant --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Each run generates the workload's inputs and known answers from the
seed, then measures from outside the package:

* --trace 0: set-up time over several fresh worker processes, then a
  closed loop with one client in one fresh worker for --seconds (and at
  least MIN_JOBS jobs, so ten samples lie beyond p90).  Prints the
  end-to-end metrics of BENCHMARK.json, with every time scaled to the
  host's full speed (see speed.py).
* --trace 1: a fixed number of jobs, untraced and then traced (see
  tracing.py), with the tracer's self-checks.  Prints the per-layer
  metrics of BENCHMARK.json.

Every verdict is checked against its known answer.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Human-readable lines come before it, and the full result (with the
gradedq path, kernel backend, Python version and core count) is written
to .perfbench_out/.  `--smoke` runs every workload at tiny size in both
modes and checks that every metric of BENCHMARK.json is printed with its
unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_JOBS = 110          # p90 of >= 110 samples has >= 10 beyond it
SETUP_SPAWNS = 9        # set-up-only workers, timed one at a time
WORKER_TIMEOUT_S = 170
UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_ms_p50": "ms", "job_ms_p90": "ms",
         "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def load_gradedq():
    """Import gradedq from this checkout's src/ and nowhere else."""
    if not (SRC / "gradedq" / "__init__.py").is_file():
        raise BenchError(f"no gradedq package under {SRC}")
    sys.path.insert(0, str(SRC))
    import gradedq
    if not Path(gradedq.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"gradedq resolves to {gradedq.__file__}, outside {SRC}")
    return gradedq


def environment(gradedq) -> dict:
    return {"gradedq_file": gradedq.__file__,
            "backend": getattr(gradedq, "BACKEND", "python"),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0))}


def spawn(spec: dict, tag: str) -> tuple[float, dict | None]:
    """Start a worker; (seconds from spawn to ready, its result or None)."""
    spec = dict(spec, out_file=str(OUT / f"out-{tag}.json"))
    spec_path = OUT / f"spec-{tag}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise BenchError(f"worker {tag} failed with exit code {code}")
    if spec["mode"] == "setup":
        return setup_s, None
    return setup_s, json.loads(Path(spec["out_file"]).read_text(encoding="utf-8"))


def check_verdicts(wl, verdicts, answers) -> list[int]:
    """Indices of wrong verdicts; on cli also --json bytes that differ
    between two runs of the same argv."""
    wrong, first_sha = [], {}
    for i, verdict in enumerate(verdicts):
        slot = i % len(answers)
        ok = wl.check(verdict, answers[slot])
        if "sha" in verdict:
            ok = ok and first_sha.setdefault(slot, verdict["sha"]) == verdict["sha"]
        if not ok:
            wrong.append(i)
    return wrong


def measure(workload: str, seed: int, seconds: float, trace: int,
            smoke: bool = False) -> dict:
    from workloads import WORKLOADS
    gradedq = load_gradedq()
    wl = WORKLOADS[workload]
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-s{seed}-t{trace}"
    workdir = OUT / tag
    workdir.mkdir(exist_ok=True)

    min_jobs = 1 if smoke else MIN_JOBS
    if trace:
        count = wl.smoke_trace_jobs if smoke else wl.trace_jobs
    else:
        count = wl.pool_size(seconds, min_jobs)
    meta, jobs, answers = wl.generate(seed, count, workdir)
    if not smoke:
        min_jobs = max(min_jobs, wl.min_cycles * len(jobs))
    meta["src"] = str(SRC)
    jobs_file = workdir / "jobs.jsonl"
    jobs_file.write_text("\n".join(json.dumps(job) for job in jobs), encoding="utf-8")
    spec = {"workload": workload, "src": str(SRC), "meta": meta,
            "jobs_file": str(jobs_file), "seconds": seconds, "min_jobs": min_jobs,
            "repeat_jobs": 1 if smoke else 3, "start_repeat": 1 if smoke else 7,
            "spans_file": str(OUT / f"spans-{workload}.csv")}
    lines = [f"workload={workload} seed={seed} trace={trace} jobs_in_pool={len(jobs)}"]
    env = environment(gradedq)

    if not trace:
        speed.warm_up()
        setups, setups_wall = [], []
        for k in range(1 if smoke else SETUP_SPAWNS):
            ref_before = speed.reference_s()
            wall = spawn(dict(spec, mode="setup"), f"{tag}-setup{k}")[0]
            setups.append(speed.scale(wall, ref_before, speed.reference_s()))
            setups_wall.append(wall)
        _, res = spawn(dict(spec, mode="loop"), f"{tag}-loop")
        wall_lat, refs = res["latencies_s"], res["refs_s"]
        lat = [speed.scale(x, refs[i], refs[i + 1]) for i, x in enumerate(wall_lat)]
        n = len(lat)
        wrong = check_verdicts(wl, res["verdicts"], answers)
        rss_kb = res["maxrss_children_kb"] if workload == "cli" else res["maxrss_kb"]
        values = {"setup_s": statistics.median(setups),
                  "jobs_per_s": n / sum(lat),
                  "job_ms_p50": statistics.median(lat) * 1e3,
                  "job_ms_p90": p90(lat) * 1e3,
                  "peak_rss_mb": rss_kb / 1024}
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
        beyond = sum(1 for x in lat if x * 1e3 > values["job_ms_p90"])
        lines += [f"{k:<20} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
        lines += [f"{'wrong_verdict_ratio':<20} {len(wrong) / n:.6g} ratio "
                  f"({len(wrong)} of {n} jobs)",
                  f"samples: {n} jobs, {beyond} beyond p90, {len(setups)} set-ups, "
                  f"pool wrapped {(n - 1) // len(jobs)} times",
                  f"wall clock, unscaled: setup_s {statistics.median(setups_wall):.6g} s, "
                  f"jobs_per_s {n / res['wall_s']:.6g} 1/s (reference included), "
                  f"job_ms_p50 {statistics.median(wall_lat) * 1e3:.6g} ms, "
                  f"job_ms_p90 {p90(wall_lat) * 1e3:.6g} ms",
                  f"host speed: reference median {statistics.median(refs) * 1e3:.4g} ms, "
                  f"nominal {speed.NOMINAL_S * 1e3:.4g} ms"]
        attempted, failed, selfcheck_ok = n, len(wrong), True
    else:
        _, res = spawn(dict(spec, mode="trace"), f"{tag}-trace")
        wrong = check_verdicts(wl, res["verdicts"], answers)
        sc = res["selfcheck"]
        selfcheck_ok = (sc["counts_repeat"] and sc["verdicts_equal"]
                        and not sc["bypassed"] and not sc["sites_missed"])
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in res["metrics"].items()}
        lines += [f"{k:<36} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
        lines += [f"traced {len(jobs)} jobs: {res['spans']} spans, "
                  f"untraced {res['untraced_s']:.3f} s, traced {res['traced_s']:.3f} s",
                  f"self-check: {'PASS' if selfcheck_ok else 'FAIL'} "
                  f"(counts repeat: {sc['counts_repeat']}, traced verdicts equal: "
                  f"{sc['verdicts_equal']}, bypassed: {sc['bypassed'] or 'none'}, "
                  f"expected sites not hit: {sc['sites_missed'] or 'none'}, "
                  f"absent: {sc['sites_absent'] or 'none'})",
                  "top self time (function, calls, ms):"]
        lines += [f"  {name:<44} {calls:>8} {ms:10.1f}" for name, calls, ms in res["top_self"]]
        attempted, failed = len(jobs), len(wrong)

    if res["backend"] != env["backend"] or res["gradedq_file"] != env["gradedq_file"]:
        raise BenchError("worker imported a different gradedq than the runner")
    lines.insert(1, " ".join(f"{k}={v}" for k, v in env.items()))
    result = {"correct": failed == 0 and selfcheck_ok, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {"workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
              "env": env, **result, "wrong_jobs": wrong[:20]}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1),
                                            encoding="utf-8")
    return {**result, "lines": lines}


def p90(values: list) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def unit_of(name: str) -> str:
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith("ratio") or name.startswith("share.") or name.endswith("per_trial") \
            or name.endswith("series_len"):
        return "ratio"
    return "count"


def smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for w in spec["workloads"]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            res = measure(w["name"], seed=1, seconds=0.3, trace=trace, smoke=True)
            missing = [m["name"] for m in wanted
                       if res["metrics"].get(m["name"], {}).get("unit") != m["unit"]]
            extra = sorted(set(res["metrics"]) - {m["name"] for m in wanted})
            passed = res["correct"] and not missing and not extra
            ok = ok and passed
            print(f"smoke {w['name']} trace={trace}: {'PASS' if passed else 'FAIL'}"
                  f" (correct={res['correct']}, missing or wrong unit: {missing or 'none'},"
                  f" not in BENCHMARK.json: {extra or 'none'})")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        res = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(res.pop("lines")))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
