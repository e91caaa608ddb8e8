"""Correctness gate: an EP decision independent of epkit.linalg, and the
default-seed report digest.

A square matrix a is EP exactly when range(a) = range(a*), that is when
rank [a | a*] = rank a.  Ranks here come from plain Gauss elimination over
(Fraction, Fraction) pairs, so a defect in epkit's own linear algebra cannot
vouch for itself.

Run as a script to print the digests of the current program:

    PYTHONPATH=src python3 bench/gate.py > bench/digests.json
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from fractions import Fraction

DIGESTS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

_ZERO = (Fraction(0), Fraction(0))


def _mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _inv(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def _rank(rows: list) -> int:
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != _ZERO), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = _inv(rows[rank][col])
        for i in range(rank + 1, len(rows)):
            if rows[i][col] == _ZERO:
                continue
            f = _mul(rows[i][col], inv)
            rows[i] = [(a[0] - p[0], a[1] - p[1])
                       for a, p in zip(rows[i], (_mul(f, x) for x in rows[rank]))]
        rank += 1
    return rank


def oracle_is_ep(a) -> bool:
    """rank [a | a*] == rank a, over Fraction pairs read from a's entries."""
    n = a.rows
    m = [[(a.entry(i, j).re, a.entry(i, j).im) for j in range(n)] for i in range(n)]
    aug = [m[i] + [(m[j][i][0], -m[j][i][1]) for j in range(n)] for i in range(n)]
    return _rank(aug) == _rank(m)


def check_request(theorem_id: str, cfg, report) -> str:
    """Empty string when the report is right, else the reason it is not."""
    if report.failed:
        return f"equivalence violation {report.equivalence_violations[0]}"
    if theorem_id == "5.2":
        return ""  # norm-relative verdicts; the digest covers them
    from epkit.battery import gen_matrix

    ep = oracle_is_ep(gen_matrix(cfg))
    if cfg.kind == "ep" and not ep:
        return "generator promised ep, oracle says not ep"
    if cfg.kind == "non_ep" and ep:
        return "generator promised non_ep, oracle says ep"
    for sid, slot in report.per_statement_truth_counts.items():
        if slot["inconclusive"] or slot["true" if ep else "false"] != 1:
            return f"{sid} disagrees with the oracle (ep={ep}): {slot}"
    return ""


def report_digest(reports: list) -> str:
    """sha256 of the reports with their elapsed field removed."""
    body = []
    for r in reports:
        d = r.to_dict()
        d.pop("elapsed")
        body.append(d)
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def workload_digest(w) -> str:
    """Digest of the first w.digest_requests requests at the default seed."""
    from epkit.battery import run_battery
    from workloads import DEFAULT_SEED, build_requests, draw_configs

    n = w.digest_requests
    reqs = build_requests(w, draw_configs(w, DEFAULT_SEED, n), n)
    return report_digest([run_battery(tid, [cfg], norm=norm) for tid, cfg, norm in reqs])


def expected_digest(workload: str) -> str:
    with open(DIGESTS_FILE, encoding="utf-8") as fh:
        return json.load(fh)[workload]


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import WORKLOADS

    json.dump({name: workload_digest(w) for name, w in WORKLOADS.items()},
              sys.stdout, indent=2)
    sys.stdout.write("\n")
