"""In-memory span tracing of delaytower, installed from outside the package.

Each public callable listed in TARGETS is replaced by a wrapper that records a
span (name, start, end, parent span, workload operation id, note) and then
restored. A function is patched in every delaytower module that bound it at
import time (``sim.advance_epoch`` is ``reconfig.advance_epoch``), and a
method is patched on its class. ``serialization`` gets no spans: its encoders
run thousands of times inside hashing and wrapping them would distort the
timings; their cost shows inside the proof and tower spans.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import sys
import time
from collections import defaultdict

# module -> functions, or (class, method) pairs, traced under "<module>.<name>".
TARGETS = {
    "cli": ["main", "cmd_mine", "cmd_verify_tower"],
    "tower": ["init_tower", "extend", "next_input", "record_valid", "validate_chain",
              "save_tower", "load_tower"],
    "vdf": ["generate_modulus", "setup", "eval", "verify", "fast_reject", "hash_to_group",
            "serialize_proof", "deserialize_proof"],
    "ledger": [("LedgerState", "register_miner"), ("LedgerState", "submit_proof"),
               ("LedgerState", "record_block"), ("LedgerState", "export_snapshot"),
               ("LedgerState", "import_snapshot")],
    "signing": [("Ed25519Scheme", "sign"), ("Ed25519Scheme", "verify"),
                ("KeyedHashScheme", "sign"), ("KeyedHashScheme", "verify")],
    "reconfig": ["advance_epoch", "jail_failed_validators", "get_validator_universe",
                 "propose_validator_set"],
    "sim": ["run", ("SimMetrics", "to_csv"), ("SimMetrics", "to_summary_json")],
}

# Span name -> note taken from (args, result) after the span has closed.
NOTES = {
    "vdf.fast_reject": lambda args, result: bool(result),
    "ledger.submit_proof": lambda args, result: bool(result),
    "tower.save_tower": lambda args, result: os.path.getsize(args[1]),
    "ledger.export_snapshot": lambda args, result: len(result.encode()),
}

ROOT = "harness.iteration"

NAME, START, END, PARENT, OP, NOTE = range(6)


class Tracer:
    """Collects spans while installed; ``op`` tags spans with the harness operation."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A harness-side span, such as the iteration root."""
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op, None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][END] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if note is not None:
                self.spans[sid][NOTE] = note(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        package = [m for key, m in sys.modules.items()
                   if key == "delaytower" or key.startswith("delaytower.")]
        for module_name, targets in TARGETS.items():
            module = sys.modules[f"delaytower.{module_name}"]
            for target in targets:
                if isinstance(target, tuple):
                    self._patch_method(module_name, getattr(module, target[0]), target[1])
                    continue
                original = getattr(module, target)
                wrapper = self._wrap(f"{module_name}.{target}", original)
                for importer in package:
                    for key, value in list(vars(importer).items()):
                        if value is original:
                            self._patched.append((importer, key, original))
                            setattr(importer, key, wrapper)

    def _patch_method(self, module_name: str, cls: type, method: str) -> None:
        raw = cls.__dict__[method]
        name = f"{module_name}.{method}"
        if isinstance(raw, classmethod):
            replacement = classmethod(self._wrap(name, raw.__func__))
        else:
            replacement = self._wrap(name, raw)
        self._patched.append((cls, method, raw))
        setattr(cls, method, replacement)

    def uninstall(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part covered by its direct children (ns)."""
    covered = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, inclusive and self totals, and duration quantiles."""
    selfs = self_times(spans)
    durations = defaultdict(list)
    self_total = defaultdict(int)
    notes = defaultdict(list)
    for span, own in zip(spans, selfs):
        durations[span[NAME]].append(span[END] - span[START])
        self_total[span[NAME]] += own
        if span[NOTE] is not None:
            notes[span[NAME]].append(span[NOTE])
    out = {}
    for name, values in durations.items():
        values.sort()
        out[name] = {
            "calls": len(values),
            "total_s": sum(values) / 1e9,
            "self_s": self_total[name] / 1e9,
            "ms.p50": statistics.median(values) / 1e6,
            "ms.p95": values[min(len(values) - 1, int(0.95 * len(values)))] / 1e6,
            "notes": notes.get(name, []),
        }
    return out


def self_ms_samples(spans: list[list], name: str) -> list[float]:
    """Self times of every span called ``name``, in milliseconds."""
    selfs = self_times(spans)
    return [own / 1e6 for span, own in zip(spans, selfs) if span[NAME] == name]


def rejects_reaching_verify(spans: list[list]) -> int:
    """Rejected submissions whose span contains a full transcript verification."""
    verified = {s[PARENT] for s in spans if s[NAME] == "vdf.verify"}
    return sum(1 for sid, s in enumerate(spans)
               if s[NAME] == "ledger.submit_proof" and s[NOTE] is False and sid in verified)


def vdf_calls_in_ops(spans: list[list], op_prefix: str) -> int:
    """Delay-function spans, other than the cached modulus lookup, tagged with an
    operation id starting with ``op_prefix``."""
    return sum(1 for s in spans if s[NAME].startswith("vdf.") and s[NAME] != "vdf.generate_modulus"
               and str(s[OP]).startswith(op_prefix))


def span_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one traced call adds to an untraced one, measured on a no-op."""
    def noop():
        return None

    traced = Tracer()._wrap("calibration", noop)
    best = {}
    for label, fn in (("plain", noop), ("traced", traced)):
        times = []
        for _ in range(repeats):
            started = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - started)
        best[label] = min(times)
    return max(0.0, best["traced"] - best["plain"]) / calls
