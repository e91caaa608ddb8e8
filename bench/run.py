"""Seeded battery benchmark for epkit.

    python3 bench/run.py --workload sweep-n4 --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0

Each workload is a closed loop with one client in one worker process.  With
--trace 0 the run reports the end-to-end metrics; with --trace 1 it reports
the per-layer metrics of a traced run and writes the spans under bench/out/.

Request times are CPU seconds of the worker scaled to a reference machine
speed by a probe timed between requests (see probe.py); --seconds is a
budget of such seconds.  The loop is single-threaded and never blocks (no
I/O, BLAS pinned to one thread), so on an idle machine at the reference
speed they equal wall time.  Raw CPU and wall-clock figures are printed and
kept in the result file beside them.

Every run checks each request against an independent EP decision and the
default-seed report digest, prints a table by metric name with unit, writes
the full result with the environment record to bench/out/, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}.

The worker runs from src/ of this checkout with EPKIT_THREADS unset and the
BLAS thread count fixed at 1; without src/epkit the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from workloads import WORKLOADS, id_seed  # noqa: E402

# Set-up-only workers, after one unmeasured warm-up; half of them run before
# the measuring worker and half after, so the median spans the run's host load.
SETUP_SAMPLES = 8
RUN_TIMEOUT = 170.0  # wall seconds for all workers of one workload
BLAS_THREADS = "1"

END_TO_END = {  # name -> unit; fail_ratio is reported as failed / attempted
    "instances_per_s": "1/s",
    "instance_ms_p50": "ms",
    "instance_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms") or "_ms." in name:
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    if name.startswith("exactnum.adagger_bits"):
        return "bits"
    return "count"


class RunError(RuntimeError):
    """The worker failed or broke its protocol; no result is printed."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("EPKIT_THREADS", None)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = BLAS_THREADS
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def spawn(workload: str, seed: int, seconds: float, mode: str, deadline: float):
    """Run one worker, killed at perf_counter() `deadline`; returns its
    set-up (CPU s, scaled CPU s, wall s) and its parsed result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    t0 = perf_counter()
    if t0 >= deadline:
        raise RunError(f"out of time before the {mode} worker for {workload}")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(deadline - t0, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    word, *times = first.split()
    if code != 0 or word != "ready":
        raise RunError(f"worker {mode} for {workload} exited with code {code}")
    lines = rest.strip().splitlines()
    cpu, scaled = map(float, times)
    return (cpu, scaled, ready), (json.loads(lines[-1]) if lines else None)


def timings(lat: list, completed: int) -> dict:
    """Throughput and latency percentiles from per-request seconds."""
    p90 = lat[0] if len(lat) < 2 else statistics.quantiles(lat, n=10, method="inclusive")[8]
    return {"instances_per_s": completed / sum(lat),
            "instance_ms_p50": statistics.median(lat) * 1000.0,
            "instance_ms_p90": p90 * 1000.0}


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    deadline = perf_counter() + RUN_TIMEOUT
    spawn(name, seed, seconds, "setup", deadline)  # warm-up: bytecode and file cache
    setups = [spawn(name, seed, seconds, "setup", deadline)[0]
              for _ in range(SETUP_SAMPLES // 2)]
    ready, res = spawn(name, seed, seconds, "trace" if traced else "measure", deadline)
    setups.append(ready)
    setups += [spawn(name, seed, seconds, "setup", deadline)[0]
               for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    attempted, failed = res["attempted"], res["failed"]
    out = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "correct": failed == 0 and res["digest_ok"],
        "attempted": attempted, "failed": failed, "digest_ok": res["digest_ok"],
        "failures": res["failures"],
        "env": {**res["env"], "seed": seed,
                "id_seeds": {t: id_seed(name, seed, t) for t in WORKLOADS[name].ids}},
        "setup_samples_s": dict(zip(("cpu", "scaled", "wall"), map(list, zip(*setups)))),
    }
    if traced:
        out["metrics"] = {k: (v, layer_unit(k)) for k, v in res["layers"].items()}
        out.update(spans_file=res["spans_file"], spans=res["spans"],
                   counted_requests=res["counted_requests"], wall_shares=res["wall_shares"])
        return out
    completed = attempted - res["raised"]
    scaled, cpu, wall = res["scaled_lat"], res["cpu_lat"], res["wall_lat"]
    values = {**timings(scaled, completed),
              "setup_s": statistics.median(s for _, s, _ in setups),
              "peak_rss_mb": res["peak_rss_kb"] / 1024.0}
    out["metrics"] = {k: (v, END_TO_END[k]) for k, v in values.items()}
    out["fail_ratio"] = failed / attempted
    out["samples"] = len(scaled)
    out["raw_cpu"] = {**timings(cpu, completed),
                      "setup_s": statistics.median(c for c, _, _ in setups)}
    out["wall_clock"] = {**timings(wall, completed),
                         "setup_s": statistics.median(w for _, _, w in setups),
                         "cpu_share": sum(cpu) / sum(wall)}
    out["probe_ms"] = res["probe_ms"]
    out["request_scaled_s"] = scaled
    return out


def print_table(r: dict) -> None:
    kind = "per-layer (traced)" if r["trace"] else "end-to-end"
    print(f"== {r['workload']}  seed {r['seed']}  {kind}  "
          f"{r['attempted']} requests, {r['failed']} failed, "
          f"digest {'ok' if r['digest_ok'] else 'MISMATCH'}")
    width = max(len(k) for k in r["metrics"]) + 2
    for k, (v, unit) in r["metrics"].items():
        print(f"  {k:<{width}} {v:>14.6g} {unit}")
    if not r["trace"]:
        print(f"  {'fail_ratio':<{width}} {r['fail_ratio']:>14.6g} failed/attempted "
              f"({r['samples']} latency samples)")
        for view in ("raw_cpu", "wall_clock", "probe_ms"):
            print(f"  {view}: " + ", ".join(f"{k} {v:.6g}" for k, v in r[view].items()))
    else:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in r["wall_shares"].items())
        print(f"  spans: {r['spans']} in {r['spans_file']}; count-only pass over "
              f"{r['counted_requests']} requests; share of request time: {shares}")
    for k, why in r["failures"].items():
        print(f"  request {k} failed: {why}")
    print("  env: " + json.dumps(r["env"], sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "epkit", "__init__.py")):
        print(f"error: no epkit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    for r in results:
        print_table(r)
        path = os.path.join(OUT_DIR, f"result-{r['workload']}-seed{r['seed']}-trace{r['trace']}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(r, fh, indent=2)
    prefix = len(results) > 1
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}/{k}" if prefix else k): {"value": v, "unit": u}
                    for r in results for k, (v, u) in r["metrics"].items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
