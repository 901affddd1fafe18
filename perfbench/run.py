"""Benchmark entry point for delaytower: one seeded workload per invocation.

    python3 perfbench/run.py --workload mine|validate --seed N --seconds S --trace 0|1

Run from the repository root. The program under test is imported from
./src. With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 it carries the per-layer metrics, taken from
traced iterations that alternate with untraced ones so the tracing overhead
is measured in the same process. Full reports, spans and the exact-count
record go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Per-layer figures: name -> (unit, span name, field). Fields: calls; "pct" is
# inclusive time as a share of the traced iteration; notes are counted or summed.
LAYER_SPANS = {
    "vdf.eval.calls": ("count", "vdf.eval", "calls"),
    "vdf.eval.pct": ("%", "vdf.eval", "pct"),
    "vdf.verify.calls": ("count", "vdf.verify", "calls"),
    "vdf.verify.pct": ("%", "vdf.verify", "pct"),
    "vdf.fast_reject.calls": ("count", "vdf.fast_reject", "calls"),
    "vdf.fast_reject.rejects": ("count", "vdf.fast_reject", "true_notes"),
    "vdf.hash_to_group.calls": ("count", "vdf.hash_to_group", "calls"),
    "vdf.hash_to_group.pct": ("%", "vdf.hash_to_group", "pct"),
    "vdf.serialize_proof.calls": ("count", "vdf.serialize_proof", "calls"),
    "vdf.deserialize_proof.calls": ("count", "vdf.deserialize_proof", "calls"),
    "tower.record_valid.calls": ("count", "tower.record_valid", "calls"),
    "tower.validate_chain.calls": ("count", "tower.validate_chain", "calls"),
    "tower.validate_chain.pct": ("%", "tower.validate_chain", "pct"),
    "tower.extend.calls": ("count", "tower.extend", "calls"),
    "tower.save_tower.calls": ("count", "tower.save_tower", "calls"),
    "tower.save_tower.bytes": ("B", "tower.save_tower", "sum_notes"),
    "tower.save_tower.pct": ("%", "tower.save_tower", "pct"),
    "tower.load_tower.calls": ("count", "tower.load_tower", "calls"),
    "ledger.register_miner.calls": ("count", "ledger.register_miner", "calls"),
    "ledger.submit_proof.calls": ("count", "ledger.submit_proof", "calls"),
    "ledger.submit_proof.accepted": ("count", "ledger.submit_proof", "true_notes"),
    "ledger.submit_proof.rejected": ("count", "ledger.submit_proof", "false_notes"),
    "ledger.record_block.calls": ("count", "ledger.record_block", "calls"),
    "ledger.record_block.pct": ("%", "ledger.record_block", "pct"),
    "ledger.export_snapshot.calls": ("count", "ledger.export_snapshot", "calls"),
    "ledger.export_snapshot.bytes": ("B", "ledger.export_snapshot", "sum_notes"),
    "ledger.export_snapshot.pct": ("%", "ledger.export_snapshot", "pct"),
    "signing.verify.calls": ("count", "signing.verify", "calls"),
    "signing.verify.pct": ("%", "signing.verify", "pct"),
    "reconfig.advance_epoch.calls": ("count", "reconfig.advance_epoch", "calls"),
    "reconfig.advance_epoch.pct": ("%", "reconfig.advance_epoch", "pct"),
    "sim.run.calls": ("count", "sim.run", "calls"),
    "cli.main.calls": ("count", "cli.main", "calls"),
}
MODULES = ("harness", "cli", "tower", "vdf", "ledger", "signing", "reconfig", "sim")
EXACT_UNITS = ("count", "B")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_digest() -> str:
    """Digest of the program under test, so exact counts compare like with like."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "delaytower").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(workload, args) -> dict:
    import cryptography
    import workloads
    return {"host": platform.node(), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "cryptography": cryptography.__version__,
            "modulus_bits": workloads.MODULUS_BITS, "t": workloads.ITERATIONS,
            "workload": workload.name, "sizes": workload.sizes(), "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "source_sha256": source_digest()}


def quantile(values, q: int) -> float:
    """q-th percentile (exclusive method), as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


def layer_metrics(spans_list) -> tuple[dict, dict]:
    """Per-layer metrics of one traced iteration, plus the named per-layer figures."""
    summary = spans.summarize(spans_list)
    root_s = summary[spans.ROOT]["total_s"]
    metrics = {}
    for name, (unit, span_name, field) in LAYER_SPANS.items():
        row = summary.get(span_name, {"calls": 0, "total_s": 0.0, "notes": []})
        value = {"calls": row["calls"],
                 "pct": 100.0 * row["total_s"] / root_s,
                 "true_notes": sum(1 for n in row["notes"] if n is True),
                 "false_notes": sum(1 for n in row["notes"] if n is False),
                 "sum_notes": sum(row["notes"])}[field]
        metrics[name] = (value, unit)
    metrics["ledger.rejects_reaching_verify"] = (spans.rejects_reaching_verify(spans_list),
                                                 "count")
    module_self = dict.fromkeys(MODULES, 0.0)
    for name, row in summary.items():
        module_self[name.split(".")[0]] += row["self_s"]
    for module, seconds in module_self.items():
        metrics[f"{module}.self_pct"] = (100.0 * seconds / root_s, "%")

    def own(name):
        samples = spans.self_ms_samples(spans_list, name)
        return statistics.median(samples) if samples else None

    def row(name, field, scale=1.0):
        return summary[name][field] * scale if name in summary else None

    def total_ms(*names):
        present = [summary[n]["total_s"] for n in names if n in summary]
        return sum(present) * 1000 if present else None

    named = {
        "vdf.eval.ms.p50": row("vdf.eval", "ms.p50"),
        "vdf.eval.total_s": row("vdf.eval", "total_s"),
        "vdf.verify.ms.p50": row("vdf.verify", "ms.p50"),
        "vdf.verify.total_s": row("vdf.verify", "total_s"),
        "vdf.hash_to_group.us.p50": row("vdf.hash_to_group", "ms.p50", 1000),
        "tower.validate_chain.total_s": row("tower.validate_chain", "total_s"),
        "tower.extend.self_ms.p50": own("tower.extend"),
        "tower.save_tower.ms.p50": row("tower.save_tower", "ms.p50"),
        "tower.load_tower.self_ms.p50": own("tower.load_tower"),
        "ledger.submit_proof.self_ms.p50": own("ledger.submit_proof"),
        "ledger.register_miner.ms.p50": row("ledger.register_miner", "ms.p50"),
        "ledger.record_block.us.p50": row("ledger.record_block", "ms.p50", 1000),
        "ledger.export_snapshot.ms.p50": row("ledger.export_snapshot", "ms.p50"),
        "signing.verify.us.p50": row("signing.verify", "ms.p50", 1000),
        "reconfig.advance_epoch.ms.p50": row("reconfig.advance_epoch", "ms.p50"),
        "reconfig.advance_epoch.ms.p95": row("reconfig.advance_epoch", "ms.p95"),
        "sim.run.self_s": row("sim.run", "self_s"),
        "sim.metrics_out.ms": total_ms("sim.to_csv", "sim.to_summary_json"),
        "cli.mine.session_s.p50": row("cli.cmd_mine", "ms.p50", 1e-3),
        "cli.mine.self_ms": own("cli.cmd_mine"),
        "rotation.vdf_calls": spans.vdf_calls_in_ops(spans_list, "epoch-"),
        "traced_iteration_s": root_s,
        "self_sum_s": sum(r["self_s"] for r in summary.values()),
    }
    return metrics, {k: v for k, v in named.items() if v is not None}


def check_exact_counts(workload, seed, traced_counts, check) -> None:
    """Counts must repeat between traced iterations and between runs of one seed."""
    first = traced_counts[0]
    for later in traced_counts[1:]:
        check.expect(later == first, "per-layer counts differ between traced iterations")
    OUT.mkdir(exist_ok=True)
    record_path = OUT / "counts.json"
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    key = f"{workload.name}:{seed}:{source_digest()}"
    if key in record:
        diff = sorted(k for k in first if record[key].get(k) != first[k])
        check.expect(not diff, f"per-layer counts differ from an earlier run of this seed: {diff}")
    else:
        record[key] = first
        record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def measure(workload, args, work: Path, check) -> tuple[dict, dict]:
    fixture, setup_s = workload.setup(args.seed, work)
    untraced, traced, traced_spans = [], [], []
    measured = 0.0
    while True:
        tracer = spans.Tracer() if args.trace and len(traced) < len(untraced) else None
        result = workload.iteration(fixture, tracer, check)
        measured += result.wall_s
        if tracer is None:
            untraced.append(result)
        else:
            traced.append(result)
            traced_spans.append(tracer.spans)
        done = len(untraced) + len(traced)
        if measured >= args.seconds and done >= workload.min_iterations \
                and (not args.trace or traced):
            break
    workload.check_output(fixture, check)
    runs = untraced + traced
    for later in runs[1:]:
        for label, value in later.digests.items():
            check.expect(value == runs[0].digests[label],
                         f"{label} digest differs between iterations of one seed")

    samples = [ms for r in untraced for ms in r.op_ms]
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "iteration_s": (statistics.median(r.wall_s for r in untraced), "s"),
        "ops_per_s": (statistics.median(r.ops / r.ops_s for r in untraced), "1/s"),
        "op_ms.p50": (statistics.median(samples), "ms"),
        "op_ms.p90": (quantile(samples, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "env": environment(workload, args),
        "iteration_walls_s": {"untraced": [r.wall_s for r in untraced],
                              "traced": [r.wall_s for r in traced]},
        "op_samples": len(samples),
        "named": {k: statistics.median(r.named[k] for r in untraced) for k in untraced[0].named},
        "digests": runs[0].digests,
    }
    per_layer = {}
    if args.trace:
        per_iteration = [layer_metrics(s) for s in traced_spans]
        per_layer = per_iteration[-1][0]
        check_exact_counts(workload, args.seed,
                           [{k: v for k, (v, unit) in m.items() if unit in EXACT_UNITS}
                            for m, _ in per_iteration], check)
        untraced_s = end_to_end["iteration_s"][0]
        traced_s = statistics.median(r.wall_s for r in traced)
        # The traced-minus-untraced difference is mostly run-to-run noise here, so
        # the overhead metric is the span count times the measured cost of one span.
        per_layer["trace.overhead_pct"] = (
            100.0 * len(traced_spans[-1]) * spans.span_cost_s() / traced[-1].wall_s, "%")
        detail["layers"] = {**per_iteration[-1][1], "untraced_iteration_s": untraced_s,
                            "traced_minus_untraced_pct": 100.0 * (traced_s / untraced_s - 1)}
        write_spans(workload, args.seed, traced_spans)
    return (per_layer if args.trace else end_to_end), {**detail, "end_to_end": end_to_end}


def write_spans(workload, seed, traced_spans) -> None:
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{workload.name}-seed{seed}.jsonl", "w", encoding="ascii") as fh:
        for iteration, spans_list in enumerate(traced_spans):
            for sid, (name, start, end, parent, op, note) in enumerate(spans_list):
                fh.write(json.dumps([iteration, sid, name, start, end, parent, op, note]) + "\n")


def declared_metrics(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "delaytower" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    check = workloads.Checker()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        metrics, detail = measure(workload, args, work, check)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    printed = {}
    for spec in declared_metrics(args.trace):
        value, unit = metrics[spec["name"]]
        if unit != spec["unit"]:
            raise SystemExit(f"metric {spec['name']} measured in {unit}, declared {spec['unit']}")
        printed[spec["name"]] = {"value": value, "unit": unit}
    detail["failures"] = check.failures
    detail["failed_share"] = len(check.failures) / check.attempted
    report = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps(detail, indent=1, sort_keys=True, default=list) + "\n")

    print("env: " + json.dumps(detail["env"], sort_keys=True))
    for label, value in detail["digests"].items():
        print(f"digest.{label}: {value}")
    print("named: " + json.dumps(detail["named"], sort_keys=True))
    if args.trace:
        print("layers: " + json.dumps(detail["layers"], sort_keys=True))
    for failure in check.failures[:20]:
        print(f"FAILED: {failure}")
    print(json.dumps({"correct": not check.failures, "attempted": check.attempted,
                      "failed": len(check.failures), "metrics": printed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
