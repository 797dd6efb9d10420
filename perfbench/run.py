"""End-to-end benchmark of the Precision Interfaces system.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload session_grow --seed 1 --seconds 30 --trace 0

Runs one workload for about ``--seconds`` seconds of epochs, checks the
program's outputs, prints a human-readable table and, as the last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end figures (drift-corrected to
reference units, see calib.py); with ``--trace 1`` they are the
per-layer figures of a traced run.  Exits 1 when an output check fails
and 2 when the program cannot be found or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

from calib import percentile, slope

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {
    "op_ms.p50": "ms",
    "goodput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _op_stats(ops: list, key: str) -> tuple[float, float, float]:
    """p50, p90 and p95 of the ops' ``key`` times in ms, failures on top."""
    values = [getattr(op, key) * 1e3 for op in ops]
    failed = [op.error is not None for op in ops]
    return tuple(percentile(values, failed, q) for q in (50, 90, 95))


def _goodput(periods: list, key: str) -> float:
    seconds = sum(getattr(p, key) for p in periods)
    return sum(p.successes for p in periods) / seconds


def end_to_end(record, rss_mb: float) -> tuple[dict[str, float], dict[str, float]]:
    """The end-to-end metrics in reference units, and their raw wall
    twins; the ungated tail percentiles ride along for the table."""
    ref_p50, ref_p90, ref_p95 = _op_stats(record.ops, "ref_s")
    wall_p50, wall_p90, wall_p95 = _op_stats(record.ops, "wall_s")
    metrics = {
        "op_ms.p50": ref_p50,
        "op_ms.p90": ref_p90,
        "op_ms.p95": ref_p95,
        "goodput_per_s": _goodput(record.periods, "ref_s"),
        "setup_s": _median([ref for ref, _ in record.setups]),
        "peak_rss_mb": rss_mb,
    }
    wall = {
        "op_ms.p50": wall_p50,
        "op_ms.p90": wall_p90,
        "op_ms.p95": wall_p95,
        "goodput_per_s": _goodput(record.periods, "wall_s"),
        "setup_s": _median([w for _, w in record.setups]),
    }
    return metrics, wall


def per_layer(record, calib_ms: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a traced run's traced epochs (timings
    that are not spans come from its untraced epochs)."""
    layers = record.layers
    ops = max(layers.ops, 1)
    seconds = layers.seconds
    counts = layers.counts

    def per_op_ms(name: str) -> float:
        return seconds[name] * 1e3 / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def pct(values: list[float], q: float) -> float:
        return percentile([v * 1e3 for v in values], [False] * len(values), q) if values else 0.0

    traced = [op for op in record.ops if op.traced]
    untraced = [op for op in record.ops if not op.traced]
    overhead = 0.0
    if traced and untraced:
        overhead = (_op_stats(traced, "ref_s")[0] / _op_stats(untraced, "ref_s")[0] - 1.0) * 100
    plain_ops = untraced or record.ops
    _, ref_p90, ref_p95 = _op_stats(plain_ops, "ref_s")
    wall_p50, wall_p90, wall_p95 = _op_stats(plain_ops, "wall_s")
    periods = [p for p in record.periods if not p.traced] or record.periods
    cold = [ref for ref, _, t in record.series.get("cold", []) if not t]
    warm = [ref for ref, _, t in record.series.get("warm", []) if not t]
    metrics = {
        "api.append.self_ms": (per_op_ms("api.append.self"), "ms"),
        "sqlparser.parse_ms": (per_op_ms("sqlparser.parse"), "ms"),
        "mine.ms": (per_op_ms("mine"), "ms"),
        "mine.pairs": (counts["mine.pairs"] / ops, "count"),
        "mine.memo_ratio": (ratio(counts["mine.memoised"], counts["mine.memoised"] + counts["mine.full"]), "ratio"),
        "map.ms": (per_op_ms("map"), "ms"),
        "map.reuse_ratio": (ratio(counts["map.reused"], counts["map.partitions"]), "ratio"),
        "map.ms_per_kq": (slope(*zip(*layers.map_points)) * 1e3 if layers.map_points else 0.0, "ms/kq"),
        "merge.ms": (per_op_ms("merge"), "ms"),
        "merge.component_reuse_ratio": (ratio(counts["merge.components_reused"], counts["merge.components"]), "ratio"),
        "merge.window_reuse_ratio": (
            ratio(counts["merge.windows_reused"], counts["merge.windows_reused"] + counts["merge.windows_merged"]),
            "ratio",
        ),
        "compile.ms": (per_op_ms("compile"), "ms"),
        "compile.block_ratio": (ratio(counts["compile.blocks"], counts["compile.widgets"]), "ratio"),
        "compile.patch_kb": (ratio(counts["compile.patch_bytes"], counts["compile.patches"]) / 1024, "kB"),
        "compile.ms_per_kq": (slope(*zip(*layers.compile_points)) * 1e3 if layers.compile_points else 0.0, "ms/kq"),
        "store.read_ms": (per_op_ms("store.read"), "ms"),
        "store.decode_ms": (per_op_ms("store.decode"), "ms"),
        "store.write_ms": (per_op_ms("store.write"), "ms"),
        "store.bytes_written": (counts["store.bytes_written"] / ops, "B/op"),
        "daemon.rpc_ms": (per_op_ms("daemon.rpc"), "ms"),
        "daemon.requests_per_op": (ratio(record.daemon_requests, record.daemon_ops), "count"),
        "daemon.kb_per_op": (ratio(record.daemon_bytes, record.daemon_ops) / 1024, "kB"),
        "pool.queue_ms.p50": (pct(layers.queue_s, 50), "ms"),
        "pool.queue_ms.p95": (pct(layers.queue_s, 95), "ms"),
        "pool.service_ms.p50": (pct(layers.service_s, 50), "ms"),
        "pool.service_ms.p95": (pct(layers.service_s, 95), "ms"),
        "pool.worker_busy_ratio": (ratio(layers.busy_s, layers.capacity_s), "ratio"),
        "op_ms.p90": (ref_p90, "ms"),
        "op_ms.p95": (ref_p95, "ms"),
        "generate.cold_ms": (_median(cold) * 1e3, "ms"),
        "generate.warm_ms": (_median(warm) * 1e3, "ms"),
        "calib.ms": (calib_ms, "ms"),
        "wall.op_ms.p50": (wall_p50, "ms"),
        "wall.op_ms.p90": (wall_p90, "ms"),
        "wall.op_ms.p95": (wall_p95, "ms"),
        "wall.goodput_per_s": (_goodput(periods, "wall_s"), "1/s"),
        "wall.setup_s": (_median([w for _, w in record.setups]), "s"),
        "trace.overhead_pct": (overhead, "%"),
    }
    return metrics


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Context, vm_hwm_kb

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # Pin the run, and every process it starts, to one CPU: the reference
    # kernel then measures the CPU that does the work, also on a host
    # whose CPUs run at different speeds.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # no affinity control here: measure unpinned
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run_workload, epoch_seconds = WORKLOADS[args.workload]
        ctx = Context(args.seed, args.seconds, bool(args.trace), work, SRC, epoch_seconds)
        run_workload(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    record = ctx.record
    calib_ms = ctx.cal.median_ms()
    errors = record.error_types()
    print(f"{args.workload} seed={args.seed} trace={args.trace} epochs={record.epochs} "
          f"ops={len(record.ops)} failed={sum(errors.values())} {dict(errors)}")
    if args.trace:
        layer_metrics = per_layer(record, calib_ms)
        for name, (value, unit) in layer_metrics.items():
            print(f"  {name:30s} {value:12.4f} {unit}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer_metrics.items()}
    else:
        rss_mb = (vm_hwm_kb("self") + record.child_rss_kb) / 1024.0
        values, wall = end_to_end(record, rss_mb)
        for name, value in values.items():
            raw = f"wall {wall[name]:.4f}" if name in wall else "(not a timing)"
            gated = "" if name in END_TO_END else "  (not gated)"
            unit = END_TO_END.get(name, "ms")
            print(f"  {name:16s} {value:12.4f} {unit:4s} {raw}  calib.ms {calib_ms:.4f}{gated}")
        for series, points in record.series.items():
            ref = _median([r for r, _, _ in points]) * 1e3
            raw = _median([w for _, w, _ in points]) * 1e3
            print(f"  generate_{series}_ms {ref:12.4f} ms   wall {raw:.4f}  calib.ms {calib_ms:.4f}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    for problem in record.problems:
        print(f"CHECK FAILED: {problem}")
    correct = not record.problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(record.ops),
        "failed": sum(errors.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
