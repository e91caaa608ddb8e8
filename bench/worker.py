"""One benchmark worker: a fresh interpreter that sets up, runs and checks.

    python3 bench/worker.py --workload W --seed S --seconds T --mode M

run.py starts it with `EPKIT_THREADS` removed, the BLAS thread count fixed
and `src` on the path.  Once `import epkit` and the request configs are done
(the end of set-up) the worker prints `ready <cpu s> <scaled cpu s>`, its
CPU time so far, raw and scaled by the probe (see probe.py), then, unless
the mode is `setup`, balances the configs into requests (see workloads.py)
and prints one JSON line with its measurements.

Modes:
- setup:   stop after `ready`.
- measure: closed loop of requests for T scaled CPU seconds (see probe.py),
           untraced.
- trace:   an untraced phase, the same requests again under the span tracer,
           and a count-only pass; each takes about a third of T.

Only the `run_battery` calls are timed.  Each request is checked right after
it returns, outside its timing, so nothing that grows with the request count
is kept and peak memory does not depend on throughput.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import traceback
from array import array
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPANS_DIR = os.path.join(HERE, "out")

PHASE_SHARE = 0.3  # of --seconds, for each phase of a trace run
WALL_CAP = 3.0     # a phase also ends after this many times its CPU budget in wall time
SPEED_PROBES = 15  # probes whose median scales the set-up time; one takes ~2 ms


def _run(requests, seconds, on_result, probe, tracer=None) -> dict:
    """Closed loop until the requests have used `seconds` of scaled CPU time
    (None: run every request), or the phase WALL_CAP times that in wall time.

    on_result(k, report, error) runs after request k, outside its timing;
    report is None and error a traceback when the request raised.  The probe
    runs before the first request and after each one.  Request times are
    kept as CPU time, as wall time, and as CPU time scaled to the reference
    speed by the mean of the probes on either side.
    """
    from epkit.battery import run_battery
    from probe import REFERENCE_S

    cpu_lat, wall_lat, scaled = array("d"), array("d"), array("d")
    probes = array("d", [probe()])
    scaled_total = 0.0
    start = perf_counter()
    for k, (tid, cfg, norm) in enumerate(requests):
        if tracer is not None:
            tracer.instance = k
            rec = tracer.span("request")
        w0, c0 = perf_counter(), process_time()
        rep = err = None
        try:
            rep = run_battery(tid, [cfg], norm=norm)
        except Exception:  # a failed request is counted, the loop goes on
            err = traceback.format_exc(limit=3)
        c1, w1 = process_time(), perf_counter()
        if tracer is not None:
            tracer.close(rec)
        on_result(k, rep, err)
        probes.append(probe())
        cpu_lat.append(c1 - c0)
        wall_lat.append(w1 - w0)
        scaled.append((c1 - c0) * 2.0 * REFERENCE_S / (probes[k] + probes[k + 1]))
        scaled_total += scaled[-1]
        if seconds is not None and (scaled_total >= seconds
                                    or perf_counter() - start >= WALL_CAP * seconds):
            break
    return {"cpu_lat": cpu_lat, "wall_lat": wall_lat, "scaled_lat": scaled,
            "probes": probes, "count": len(cpu_lat)}


class Checks:
    """Per-request verdicts: the oracle gate, and report equality across passes."""

    def __init__(self, requests, keep=False):
        self.requests = requests
        self.keep = keep  # keep stripped reports so later passes can be compared
        self.kept = []
        self.bad = {}
        self.raised = 0

    def gate(self, k, rep, err):
        from gate import check_request

        if err is not None:
            self.raised += 1
            self.bad[k] = "raised: " + err.strip().splitlines()[-1]
        else:
            tid, cfg, _ = self.requests[k]
            why = check_request(tid, cfg, rep)
            if why:
                self.bad[k] = why
        if self.keep:
            self.kept.append(_strip(rep))

    def same_as_kept(self, label):
        def check(k, rep, err):
            if err is not None or _strip(rep) != self.kept[k]:
                self.bad.setdefault(k, f"{label} run changed the report")
        return check

    def failures(self) -> dict:
        return {str(k): v for k, v in sorted(self.bad.items())[:5]}


def _strip(rep):
    if rep is None:
        return None
    d = rep.to_dict()
    d.pop("elapsed")
    return d


def _digest_ok(w) -> bool:
    from gate import expected_digest, workload_digest

    return workload_digest(w) == expected_digest(w.name)


def measure(w, requests, seconds, probe) -> dict:
    from probe import REFERENCE_S

    digest_ok = _digest_ok(w)  # also the warm-up, so lazy imports are not timed
    checks = Checks(requests)
    run = _run(requests, seconds, checks.gate, probe)
    return {
        "attempted": run["count"],
        "failed": len(checks.bad),
        "raised": checks.raised,
        "failures": checks.failures(),
        "digest_ok": digest_ok,
        "scaled_lat": list(run["scaled_lat"]),
        "cpu_lat": list(run["cpu_lat"]),
        "wall_lat": list(run["wall_lat"]),
        "probe_ms": {"median": statistics.median(run["probes"]) * 1000.0,
                     "reference": REFERENCE_S * 1000.0},
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def trace(w, requests, seconds, seed, probe) -> dict:
    from tracer import Counter, Tracer

    digest_ok = _digest_ok(w)
    checks = Checks(requests, keep=True)
    plain = _run(requests, seconds * PHASE_SHARE, checks.gate, probe)
    ran = requests[:plain["count"]]

    tracer = Tracer()
    tracer.install()
    try:
        traced = _run(ran, None, checks.same_as_kept("traced"), probe, tracer)
    finally:
        tracer.uninstall()

    counter = Counter()
    counter.install()
    try:
        counted = _run(ran, seconds * PHASE_SHARE, checks.same_as_kept("count-only"), probe)
    finally:
        counter.uninstall()

    os.makedirs(SPANS_DIR, exist_ok=True)
    spans_path = os.path.join(SPANS_DIR, f"spans-{w.name}-seed{seed}.jsonl")
    plain_s, traced_s = sum(plain["scaled_lat"]), sum(traced["scaled_lat"])
    tracer.write(spans_path, {"workload": w.name, "seed": seed, "requests": len(ran),
                              "untraced_scaled_s": plain_s, "traced_scaled_s": traced_s})
    layers = tracer.layer_metrics([(tid, norm) for tid, _, norm in ran])
    layers.update(counter.metrics(counted["count"]))
    layers["trace_overhead_ratio"] = traced_s / plain_s
    return {
        "attempted": len(ran),
        "failed": len(checks.bad),
        "failures": checks.failures(),
        "digest_ok": digest_ok,
        "layers": layers,
        "wall_shares": tracer.wall_shares(),
        "counted_requests": counted["count"],
        "spans_file": os.path.relpath(spans_path, ROOT),
        "spans": len(tracer.spans),
    }


def environment() -> dict:
    """Versions and thread settings this worker actually ran with."""
    import ctypes
    import glob
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": None,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "epkit_threads_env": os.environ.get("EPKIT_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }
    # the runtime OpenBLAS bundled with numpy answers for itself, if present
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "libscipy_openblas*")):
        dll = ctypes.CDLL(lib)
        if hasattr(dll, "scipy_openblas_get_num_threads64_"):
            dll.scipy_openblas_get_config64_.restype = ctypes.c_char_p
            out["blas"] = dll.scipy_openblas_get_config64_().decode()
            out["blas_threads"] = dll.scipy_openblas_get_num_threads64_()
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = ap.parse_args()

    import epkit
    from workloads import WORKLOADS, build_requests, draw_configs

    w = WORKLOADS[args.workload]
    cfgs = draw_configs(w, args.seed)
    setup_cpu = process_time()
    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(epkit.__file__).startswith(src + os.sep):
        print(f"epkit imported from {epkit.__file__}, not from {src}", file=sys.stderr)
        return 2
    from probe import REFERENCE_S, Probe

    probe = Probe()
    probe()  # the first pass pays numpy's lazy set-up
    speed = statistics.median(probe() for _ in range(SPEED_PROBES))
    print(f"ready {setup_cpu!r} {setup_cpu * REFERENCE_S / speed!r}", flush=True)
    if args.mode == "setup":
        return 0
    requests = build_requests(w, cfgs)
    if args.mode == "measure":
        out = measure(w, requests, args.seconds, probe)
    else:
        out = trace(w, requests, args.seconds, args.seed, probe)
    out["env"] = environment()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
