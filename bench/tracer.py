"""Span tracing and op counting installed from outside the program.

`Tracer.install()` wraps the public functions of each layer and rebinds every
name under which an `epkit.*` module (or a dispatch dict in one) holds them,
because modules import functions by name.  Class-level entry points
(`MatrixQ.__matmul__`, `EPInstance.from_matrix`) are wrapped on the class.
`uninstall()` puts every original back.

Each span is [name, start, end, parent index, instance id]; spans stay in
memory until the run writes them out.  `Counter` is the count-only pass:
scalar op counts and a+ entry bit sizes, kept out of the timed runs because
wrapping `GaussianRational` ops costs more than the work they do.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from collections import Counter as _Tally
from time import perf_counter

BATTERY_FUNCS = {
    "thm32_battery": "3.2", "thm34_battery": "3.4", "thm35_battery": "3.5",
    "thm37_battery": "3.7", "thm39_battery": "3.9", "thm310_battery": "3.10",
    "thm41_battery": "4.1", "thm42_battery": "4.2", "prop52_battery": "5.2",
    "thm55_battery": "5.5", "thm56_battery": "5.6",
}
ALL_IDS = tuple(BATTERY_FUNCS.values())

# wrapped function -> span name; linalg spans are reported as self time
LINALG = {
    "__matmul__": "linalg.matmul", "rref": "linalg.rref", "solve_exists": "linalg.solve",
    "kernel": "linalg.subspace", "range_space": "linalg.subspace",
    "right_kernel": "linalg.subspace", "row_space": "linalg.subspace",
    "inverse": "linalg.inverse",
}
P_TAGS = {1: "p1", 2: "p2", math.inf: "pinf"}


class _Patcher:
    """Replaces functions everywhere epkit holds them, and undoes it."""

    def __init__(self):
        self._undo = []

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            old = owner[key]
            owner[key] = value
            self._undo.append(lambda: owner.__setitem__(key, old))
        else:
            old = owner.__dict__[key]
            setattr(owner, key, value)
            self._undo.append(lambda: setattr(owner, key, old))

    def rebind(self, orig, new, modules=None):
        """Point every module global and module-level dict entry at `new`."""
        for mod in modules or _epkit_modules():
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, key, new)
                elif isinstance(val, dict):
                    for dk, dv in list(val.items()):
                        if dv is orig:
                            self._set(val, dk, new)

    def on_class(self, cls, key, make):
        raw = cls.__dict__[key]
        if isinstance(raw, classmethod):
            self._set(cls, key, classmethod(make(raw.__func__)))
        else:
            self._set(cls, key, make(raw))

    def undo(self):
        while self._undo:
            self._undo.pop()()


def _epkit_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "epkit" or name.startswith("epkit."))]


class Tracer:
    """Timing spans at every layer boundary named in the benchmark."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.instance = -1
        self.tally = _Tally()
        self._patch = _Patcher()

    def span(self, name: str):
        """Context-free span open; returns the record to close with `close`."""
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.instance]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def close(self, rec):
        rec[2] = perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name, after=None):
        def traced(*args, **kwargs):
            rec = self.span(name(args, kwargs) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if after is not None:
                after(out)
            return out
        return traced

    def install(self):
        from epkit import battery, characterizations, linalg, pnorms, pseudoinverse

        p = self._patch
        p.on_class(linalg.MatrixQ, "__matmul__", lambda f: self._wrap(f, "linalg.matmul"))
        for fname, span in LINALG.items():
            if fname != "__matmul__":
                orig = getattr(linalg, fname)
                p.rebind(orig, self._wrap(orig, span))
        p.on_class(characterizations.EPInstance, "from_matrix",
                   lambda f: self._wrap(f, "characterizations.instance"))
        for fname, tid in BATTERY_FUNCS.items():
            orig = getattr(characterizations, fname)
            p.rebind(orig, self._wrap(orig, f"characterizations.body.{tid}",
                                      after=self._count_witnesses))
        for fname, span in (("pinv", "pseudoinverse.pinv"), ("is_ep", "pseudoinverse.is_ep"),
                            ("lemma38_witnesses", "pseudoinverse.lemma38")):
            orig = getattr(pseudoinverse, fname)
            p.rebind(orig, self._wrap(orig, span))
        orig = pnorms.hermitian_check
        p.rebind(orig, self._wrap(orig, _hermitian_span, after=self._count_verdict))
        for fname in ("gen_matrix", "gen_block_pair"):
            orig = getattr(battery, fname)
            p.rebind(orig, self._wrap(orig, "battery.gen"))
        # rank/is_ep as the generators' candidate checks: only battery's own names
        for fname in ("rank", "is_ep"):
            orig = getattr(battery, fname)
            p.rebind(orig, self._counting(orig, "battery.checks"), modules=[battery])

    def uninstall(self):
        self._patch.undo()

    def _counting(self, fn, key):
        tally = self.tally

        def counted(*args, **kwargs):
            tally[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _count_witnesses(self, results):
        self.tally["witnesses"] += sum(r.witness is not None for r in results)

    def _count_verdict(self, report):
        self.tally["hermitian.inconclusive"] += report.verdict == "inconclusive"

    def write(self, path: str, header: dict):
        """One JSON object per line: the header, then every span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, inst in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "instance": inst}) + "\n")

    def _times(self):
        """Per span: duration, and the time its direct children cover."""
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        return dur, child

    def wall_shares(self) -> dict:
        """Share of summed request time spent in the blocking layers."""
        dur, child = self._times()
        req = exact = herm = 0.0
        for s, d, c in zip(self.spans, dur, child):
            if s[0] == "request":
                req += d
            elif s[0] in ("linalg.matmul", "linalg.rref"):
                exact += d - c
            elif s[0].startswith("pnorms.hermitian_check."):
                herm += d
        return {"matmul+rref self": exact / req, "hermitian_check": herm / req}

    def layer_metrics(self, requests: list) -> dict:
        """Per-instance layer figures from the spans; requests is [(tid, norm)]."""
        spans = self.spans
        dur, child = self._times()
        total = _Tally()   # inclusive, outermost span of a name only
        calls = _Tally()
        self_ms = _Tally()
        for i, s in enumerate(spans):
            name = s[0]
            self_ms[name] += dur[i] - child[i]
            if s[3] < 0 or spans[s[3]][0] != name:
                total[name] += dur[i]
                calls[name] += 1
        n = len(requests)
        per_id = _Tally(tid for tid, _ in requests)
        per_p = _Tally(P_TAGS[norm.p] for tid, norm in requests if tid == "5.2")
        ms = 1000.0
        m = {
            "battery.gen_ms": total["battery.gen"] * ms / n,
            "battery.gen_accept_ratio": calls["battery.gen"] / max(self.tally["battery.checks"], 1),
            "battery.runner_ms": (total["request"] - sum(
                dur[i] for i, s in enumerate(spans)
                if s[3] >= 0 and spans[s[3]][0] == "request")) * ms / n,
            "characterizations.instance_ms": total["characterizations.instance"] * ms / n,
        }
        for tid in ALL_IDS:
            m[f"characterizations.body_ms.{tid}"] = (
                total[f"characterizations.body.{tid}"] * ms / per_id[tid] if per_id[tid] else 0.0)
        m["characterizations.witnesses"] = self.tally["witnesses"] / n
        m["pseudoinverse.pinv_calls"] = calls["pseudoinverse.pinv"] / n
        m["pseudoinverse.pinv_ms"] = total["pseudoinverse.pinv"] * ms / n
        m["pseudoinverse.is_ep_calls"] = calls["pseudoinverse.is_ep"] / n
        m["pseudoinverse.lemma38_ms"] = total["pseudoinverse.lemma38"] * ms / n
        for span in dict.fromkeys(LINALG.values()):
            m[f"{span}_calls"] = calls[span] / n
            m[f"{span}_ms"] = self_ms[span] * ms / n
        herm = [k for k in calls if k.startswith("pnorms.hermitian_check.")]
        herm_calls = sum(calls[k] for k in herm)
        m["pnorms.hermitian_check_calls"] = herm_calls / n
        for tag in P_TAGS.values():
            key = f"pnorms.hermitian_check.{tag}"
            m[f"pnorms.hermitian_check_ms.{tag}"] = (
                total[key] * ms / per_p[tag] if per_p[tag] else 0.0)
        m["pnorms.inconclusive_ratio"] = (
            self.tally["hermitian.inconclusive"] / herm_calls if herm_calls else 0.0)
        return m


def _hermitian_span(args, kwargs) -> str:
    norm = args[1] if len(args) > 1 else kwargs["norm"]
    return f"pnorms.hermitian_check.{P_TAGS[norm.p]}"


class Counter:
    """Count-only pass: GaussianRational ops and a+ entry bit sizes."""

    def __init__(self):
        self.ops = {"mul": 0, "add": 0, "div": 0}
        self.bits = []
        self._patch = _Patcher()

    def install(self):
        from epkit import characterizations, exactnum, pseudoinverse

        ops = self.ops
        p = self._patch

        def counting(key):
            def make(fn):
                def counted(a, b):
                    ops[key] += 1
                    return fn(a, b)
                return counted
            return make

        g = exactnum.GaussianRational
        p.on_class(g, "__mul__", counting("mul"))
        p.on_class(g, "__add__", counting("add"))
        p.on_class(g, "__sub__", counting("add"))
        p.on_class(g, "__truediv__", counting("div"))

        orig = pseudoinverse.pinv

        def pinv(a):
            out = orig(a)
            self._record(out)
            return out
        p.rebind(orig, pinv)

        def from_matrix(fn):
            def wrapped(cls, a):
                inst = fn(cls, a)
                self._record(inst.a_dagger)
                return inst
            return wrapped
        p.on_class(characterizations.EPInstance, "from_matrix", from_matrix)

    def uninstall(self):
        self._patch.undo()

    def _record(self, m):
        for i in range(m.rows):
            for x in m.row(i):
                if not x.is_zero():
                    self.bits.append(max(q.bit_length() for q in (
                        x.re.numerator, x.re.denominator, x.im.numerator, x.im.denominator)))

    def metrics(self, n: int) -> dict:
        bits = self.bits or [0]
        return {
            "exactnum.mul_calls": self.ops["mul"] / n,
            "exactnum.add_calls": self.ops["add"] / n,
            "exactnum.div_calls": self.ops["div"] / n,
            "exactnum.adagger_bits_p50": float(statistics.median(bits)),
            "exactnum.adagger_bits_max": float(max(bits)),
        }
