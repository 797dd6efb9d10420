"""The three workloads, driven through the program's public API.

A run is a fixed number of *epochs*.  An epoch builds a fresh starting
state (a ``setup_s`` sample), runs a fixed schedule of timed operations
on inputs drawn from the seed, then checks the program's outputs.  See
NOTES.md for why each workload exists.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from repro import InterfaceSession, PipelineOptions, SessionPool, generate
from repro.cache import GraphStore
from repro.cache.client import DaemonUnavailable, StoreClient
from repro.compiler.html import compile_html
from repro.errors import CacheError
from repro.compiler.incremental import apply_patch, page_html, widget_fingerprint
from repro.logs.adhoc import AdhocLogGenerator
from repro.logs.olap import OLAPLogGenerator
from repro.logs.sdss import PROFILE_NAMES, SDSSLogGenerator

from calib import Calibrator
from spans import SpanSet, Tracer

# session_grow: one SDSS analysis, preloaded, then grown 4 queries at a time
GROW_PRELOAD = 1000
GROW_PRELOAD_CHUNK = 250
GROW_BATCH = 4
GROW_EPOCH_OPS = 100
GROW_LIMIT = 512

# pool_daemon: 8 short client logs served in rounds through a 1-worker pool
POOL_SIZE = 1
POOL_QUEUE_DEPTH = 8
POOL_BATCH = 4
POOL_CLIENT_QUERIES = 24
POOL_ROUNDS_PER_DRAIN = 3
POOL_GENERATIONS = 2  # fresh client mixes served by one daemon + pool
POOL_COMPILE_LIMIT = 2048  # what a pool worker's compile_patch() uses
BENCH_CLIENT_ID = "perfbench"

# generate_batch: distinct interleaved SDSS logs, each cold then warm
GEN_LOG_QUERIES = 150
GEN_LOG_CLIENTS = 8
GEN_LOGS_PER_STORE = 8
GEN_STORE_SAMPLES = 5

#: Layers whose time the traced run reports, by span name.
LAYERS = (
    "sqlparser.parse",
    "mine",
    "map",
    "merge",
    "compile",
    "store.read",
    "store.decode",
    "store.write",
    "daemon.rpc",
)


@dataclass
class Op:
    """One timed operation."""

    ref_s: float
    wall_s: float
    error: str | None
    traced: bool


@dataclass
class Period:
    """A stretch of timed work that counts toward goodput."""

    ref_s: float
    wall_s: float
    successes: int
    traced: bool


@dataclass
class LayerTotals:
    """Per-layer sums over traced operations, in reference seconds or counts."""

    ops: int = 0
    seconds: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)
    # (log length in thousands of queries, ref seconds) per traced op
    map_points: list[tuple[float, float]] = field(default_factory=list)
    compile_points: list[tuple[float, float]] = field(default_factory=list)
    queue_s: list[float] = field(default_factory=list)
    service_s: list[float] = field(default_factory=list)
    busy_s: float = 0.0
    capacity_s: float = 0.0

    def add_spans(self, spans: SpanSet, factor: float) -> dict[str, float]:
        """Add one batch of spans scaled by ``factor``; returns the
        per-layer reference seconds it contributed."""
        added = {name: spans.total(name) * factor for name in LAYERS}
        added["api.append.self"] = spans.self_seconds("api.append") * factor
        self.seconds.update(added)
        self.counts["store.bytes_written"] += spans.total_size("store.encode")
        return added

    def add_stage_counts(self, result: Any) -> None:
        """Reuse counters from a result's public stage reports."""
        counts = self.counts
        mine = result.run.stage("mine")
        if mine is not None and not mine.stats.get("skipped"):
            counts["mine.pairs"] += mine.stats.get("n_pairs_compared", 0)
            counts["mine.memoised"] += mine.stats.get("n_alignments_memoised", 0)
            counts["mine.full"] += mine.stats.get("n_alignments_full", 0)
        stage = result.run.stage("map")
        if stage is not None and not stage.stats.get("skipped"):
            counts["map.partitions"] += stage.stats.get("n_partitions", 0)
            counts["map.reused"] += stage.stats.get("n_partitions_reused", 0)
        stage = result.run.stage("merge")
        if stage is not None and not stage.stats.get("skipped"):
            counts["merge.components"] += stage.stats.get("n_components", 0)
            counts["merge.components_reused"] += stage.stats.get("n_components_reused", 0)
            counts["merge.windows_reused"] += stage.stats.get("n_windows_reused", 0)
            counts["merge.windows_merged"] += stage.stats.get("n_windows_merged", 0)

    def add_patch(self, patch: dict[str, Any]) -> None:
        """Size counters of one patch (a full page replaces every block)."""
        counts = self.counts
        page = patch["page"] if patch["kind"] == "page" else None
        widgets = len(page["widget_ids"]) if page else len(patch["widget_ids"])
        counts["compile.patches"] += 1
        counts["compile.blocks"] += widgets if page else len(patch["blocks"])
        counts["compile.widgets"] += widgets
        counts["compile.patch_bytes"] += len(json.dumps(patch))


@dataclass
class RunRecord:
    """Everything one run measured."""

    ops: list[Op] = field(default_factory=list)
    setups: list[tuple[float, float]] = field(default_factory=list)
    periods: list[Period] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    layers: LayerTotals = field(default_factory=LayerTotals)
    epochs: int = 0
    child_rss_kb: int = 0
    # per-workload extra series, e.g. cold/warm generate times
    series: dict[str, list[tuple[float, float, bool]]] = field(default_factory=dict)
    daemon_requests: int = 0
    daemon_bytes: int = 0
    daemon_ops: int = 0

    def error_types(self) -> Counter:
        return Counter(op.error for op in self.ops if op.error is not None)


class Context:
    """Run-wide state shared by a workload's epochs."""

    def __init__(
        self, seed: int, seconds: float, trace: bool, work: Path, src: Path, epoch_seconds: float
    ) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        # A run is a fixed number of epochs, sized so that it lasts about
        # ``seconds`` on the host the benchmark was written on: the same
        # seed then always measures the same inputs, however fast the
        # machine or the program is.  Traced runs use an even count.
        self.n_epochs = max(2, round(seconds / epoch_seconds))
        if trace:
            self.n_epochs += self.n_epochs % 2
        self.work = work
        self.src = src
        self.cal = Calibrator()
        self.tracer = Tracer(work / "spans") if trace else None
        self.record = RunRecord()
        self._started = time.perf_counter()

    def more(self) -> bool:
        """True while epochs remain.  On a machine or program so slow that
        the run would overshoot its time by half, it stops early."""
        overdue = time.perf_counter() - self._started > 1.5 * self.seconds
        return self.record.epochs < self.n_epochs and not overdue

    def epochs(self) -> Iterator[tuple[int, bool]]:
        """Yield ``(inputs index, traced)`` per epoch, with the layer
        wrappers installed around traced epochs (before any pool forks)."""
        while self.more():
            traced = self.epoch_traced()
            if traced:
                self.tracer.install()
            try:
                yield self.inputs_index(), traced
            finally:
                if traced:
                    self.tracer.uninstall()
            self.record.epochs += 1

    def inputs_index(self) -> int:
        """Which inputs the current epoch draws from the seed.  A traced
        run measures every input twice, once traced and once not."""
        return self.record.epochs // 2 if self.trace else self.record.epochs

    def epoch_traced(self) -> bool:
        """Traced runs alternate traced and untraced epochs over the same
        inputs, so one run yields both the per-layer figures and the
        tracing overhead; which of the pair goes first alternates too."""
        if not self.trace:
            return False
        return self.record.epochs % 2 == self.inputs_index() % 2

    def timed(self, fn: Callable[[], Any]) -> tuple[Any, float, float]:
        """Sample the kernel, run ``fn``, return (result, ref_s, wall_s)."""
        self.cal.sample()
        started = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - started
        return result, self.cal.reference(wall), wall

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.record.problems.append(problem)


class StalePages:
    """Latency of failed ops.

    A failed op leaves its client looking at a stale page until a later
    patch of the same client succeeds (or the epoch ends), so that wait
    — not how quickly the error came back — is the op's latency.
    """

    def __init__(self) -> None:
        self._pending: dict[str, list[tuple[Op, float, float]]] = {}

    def failed(self, client: str, op: Op, began: float, factor: float) -> None:
        self._pending.setdefault(client, []).append((op, began, factor))

    def caught_up(self, client: str, at: float) -> None:
        for op, began, factor in self._pending.pop(client, []):
            op.wall_s = at - began
            op.ref_s = op.wall_s * factor

    def close(self, at: float) -> None:
        for client in list(self._pending):
            self.caught_up(client, at)


def error_type(message: str) -> str:
    """``"IndexError: ..."`` -> ``"IndexError"``."""
    return message.split(":", 1)[0].strip() or "Error"


def check_page(state: dict[str, Any] | None, interface: Any, limit: int, last_error: str | None) -> str | None:
    """The folded patch stream must render exactly what one-shot
    ``compile_html`` renders for the same interface.  When the latest
    compile failed, one-shot compilation must fail the same way."""
    try:
        expected = compile_html(interface, limit=limit)
    except Exception as exc:  # the known render defect surfaces here too
        if last_error is not None and type(exc).__name__ == last_error:
            return None
        return f"compile_html raised {type(exc).__name__} but the patch stream said {last_error}"
    if last_error is not None:
        return f"compile_patch raised {last_error} where compile_html succeeds"
    if state is None:
        return "no patch was ever folded"
    try:
        folded = page_html(state)
    except Exception as exc:  # a malformed fold is a failed check too
        return f"folded patch stream does not render: {type(exc).__name__}: {exc}"
    if folded != expected:
        return "folded patch stream differs from compile_html"
    return None


# ----------------------------------------------------------------------
# session_grow
# ----------------------------------------------------------------------
def grow_log(seed: int, epoch: int) -> list[str]:
    """One SDSS analysis (the default ``object_lookup`` profile) per
    epoch: each epoch is another client of the same seed, so a run
    averages over several analyses instead of resting on one."""
    log = SDSSLogGenerator(seed).client_log(
        client=f"C{epoch + 1}", n=GROW_PRELOAD + GROW_BATCH * GROW_EPOCH_OPS
    )
    return [entry.sql for entry in log.entries]


def session_grow(ctx: Context) -> None:
    options = PipelineOptions(cache_dir=str(ctx.work / "store"))
    for inputs, traced in ctx.epochs():
        _grow_epoch(ctx, grow_log(ctx.seed, inputs), options, traced)


def _grow_epoch(ctx: Context, sql: list[str], options: PipelineOptions, traced: bool) -> None:
    rec = ctx.record
    tracer = ctx.tracer
    setup_ref = setup_wall = 0.0
    session, ref, wall = ctx.timed(lambda: InterfaceSession(options))
    setup_ref += ref
    setup_wall += wall
    for start in range(0, GROW_PRELOAD, GROW_PRELOAD_CHUNK):
        chunk = sql[start:start + GROW_PRELOAD_CHUNK]
        _, ref, wall = ctx.timed(lambda: session.append_sql(chunk))
        setup_ref += ref
        setup_wall += wall
    patch, ref, wall = ctx.timed(lambda: session.compile_patch(limit=GROW_LIMIT))
    rec.setups.append((setup_ref + ref, setup_wall + wall))
    state = apply_patch(None, patch)
    last_error: str | None = None
    stale = StalePages()
    if tracer is not None:
        tracer.take()
    for i in range(GROW_EPOCH_OPS):
        start = GROW_PRELOAD + i * GROW_BATCH
        batch = sql[start:start + GROW_BATCH]
        ctx.cal.sample()
        factor = ctx.cal.factor()
        began = time.perf_counter()
        result = patch = None
        try:
            result = session.append_sql(batch)
            patch = session.compile_patch(limit=GROW_LIMIT)
            last_error = None
        except Exception as exc:  # counted as a failed op, by type
            last_error = type(exc).__name__
        ended = time.perf_counter()
        wall = ended - began
        op = Op(wall * factor, wall, last_error, traced)
        rec.ops.append(op)
        rec.periods.append(Period(wall * factor, wall, int(last_error is None), traced))
        if last_error is None:
            state = apply_patch(state, patch)
            stale.caught_up("session", ended)
        else:
            stale.failed("session", op, began, factor)
        if traced:
            added = rec.layers.add_spans(SpanSet(tracer.take()), factor)
            rec.layers.ops += 1
            kq = len(session) / 1000.0
            rec.layers.map_points.append((kq, added["map"]))
            rec.layers.compile_points.append((kq, added["compile"]))
            if result is not None:
                rec.layers.add_stage_counts(result)
            if patch is not None:
                rec.layers.add_patch(patch)
    stale.close(time.perf_counter())
    problem = check_page(state, session.interface, GROW_LIMIT, last_error)
    ctx.check(problem is None, f"session_grow epoch {rec.epochs}: {problem}")


# ----------------------------------------------------------------------
# pool_daemon
# ----------------------------------------------------------------------
def pool_clients(seed: int, generation: int) -> dict[str, list[str]]:
    """8 client logs from every bundled family: 4 SDSS profiles, 2 OLAP
    walks and 2 adhoc students, derived from ``seed``; every generation
    has fresh clients, so a run averages over several client mixes."""
    n = POOL_CLIENT_QUERIES
    logs: dict[str, Any] = {}
    sdss = SDSSLogGenerator(seed)
    for profile in PROFILE_NAMES[:4]:
        name = f"sdss-{profile}-{generation}"
        logs[name] = sdss.client_log(client=name, profile=profile, n=n)
    for k in (1, 2):
        name = f"olap-{generation}-{k}"
        logs[name] = OLAPLogGenerator(seed * 1000 + generation * 2 + k).generate(n=n, client=name)
    adhoc = AdhocLogGenerator(seed)
    for k in (1, 2):
        student = f"S{generation * 2 + k}"
        logs[f"adhoc-{student}"] = adhoc.student_log(student, n=n)
    return {client: [e.sql for e in log.entries] for client, log in logs.items()}


def vm_hwm_kb(pid: int | str) -> int:
    """Peak resident set (VmHWM) of a live process, in kB (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def pool_daemon(ctx: Context) -> None:
    for inputs, traced in ctx.epochs():
        first = inputs * POOL_GENERATIONS
        generations = [
            {
                client: [sql[i:i + POOL_BATCH] for i in range(0, len(sql), POOL_BATCH)]
                for client, sql in pool_clients(ctx.seed, index).items()
            }
            for index in range(first, first + POOL_GENERATIONS)
        ]
        epoch_dir = ctx.work / f"pool-{ctx.record.epochs}"
        epoch_dir.mkdir(parents=True)
        try:
            _pool_epoch(ctx, epoch_dir, generations, traced)
        finally:
            shutil.rmtree(epoch_dir, ignore_errors=True)


def _start_daemon(ctx: Context, store_dir: Path, socket_path: str, log_path: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ctx.src) + os.pathsep + env.get("PYTHONPATH", "")
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "daemon",
             "--cache-dir", str(store_dir), "--socket", socket_path],
            stdout=log, stderr=subprocess.STDOUT, env=env,
        )
    probe = StoreClient(socket_path, client_id=BENCH_CLIENT_ID, timeout=5.0)
    deadline = time.monotonic() + 60
    try:
        while True:
            try:
                probe.ping()
                return proc
            except DaemonUnavailable:
                if proc.poll() is not None or time.monotonic() > deadline:
                    proc.kill()
                    proc.wait()
                    raise RuntimeError(f"store daemon did not start: {log_path.read_text()}")
                time.sleep(0.005)
    finally:
        probe.close()


def _stop_daemon(proc: subprocess.Popen, socket_path: str) -> None:
    client = StoreClient(socket_path, client_id=BENCH_CLIENT_ID, timeout=5.0)
    try:
        client.call("shutdown")
    except CacheError:  # already gone: fall through to the wait/kill
        pass
    finally:
        client.close()
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def _pool_epoch(ctx: Context, epoch_dir: Path, generations: list[dict[str, list[list[str]]]], traced: bool) -> None:
    rec = ctx.record
    store_dir = epoch_dir / "store"
    # a relative path keeps the socket name short whatever the checkout path
    socket_path = os.path.relpath(epoch_dir / "d.sock")
    options = PipelineOptions(cache_dir=str(store_dir), daemon_socket=socket_path)

    def set_up() -> tuple[subprocess.Popen, SessionPool]:
        proc = _start_daemon(ctx, store_dir, socket_path, epoch_dir / "daemon.log")
        try:
            return proc, SessionPool(options, pool_size=POOL_SIZE, queue_depth=POOL_QUEUE_DEPTH)
        except BaseException:
            _stop_daemon(proc, socket_path)
            raise

    (proc, pool), ref, wall = ctx.timed(set_up)
    rec.setups.append((ref, wall))
    try:
        timing = _pool_rounds(ctx, pool, generations, traced)
        workers = [p for p in multiprocessing.active_children() if p.name.startswith("repro-session-worker")]
        _check_daemon_meters(ctx, socket_path, workers, len(timing[0]))
        rss = vm_hwm_kb(proc.pid) + sum(vm_hwm_kb(p.pid) for p in workers)
        rec.child_rss_kb = max(rec.child_rss_kb, rss)
        acks = pool.acks()
    finally:
        report = pool.close()
        _stop_daemon(proc, socket_path)
    ctx.check(report.clean, f"pool_daemon epoch {rec.epochs}: unclean close {report}")
    if traced:
        _pool_layers(ctx, acks, *timing)


def _pool_rounds(
    ctx: Context, pool: SessionPool, generations: list[dict[str, list[list[str]]]], traced: bool
) -> tuple[dict[int, float], float, float]:
    """Serve the epoch's client generations round by round; returns the
    submit time of every batch by ack sequence, the epoch's median drift
    factor and the wall time of its rounds and drains."""
    rec = ctx.record
    first_period = len(rec.periods)
    submitted: dict[int, float] = {}
    factors: list[float] = []
    stale = StalePages()

    async def serve_round(batches: dict[str, list[list[str]]], r: int) -> dict[str, tuple[float, Any]]:
        clients = list(batches)
        sent: dict[str, float] = {}
        arrived: dict[str, tuple[float, Any]] = {}

        def events():
            # rotate who goes first, so no client always waits behind
            # the other seven in the worker's queue
            for client in clients[r % len(clients):] + clients[:r % len(clients)]:
                sent[client] = time.perf_counter()
                yield client, batches[client][r]

        def on_result(ack: Any) -> None:
            arrived[ack.client_id] = (time.perf_counter(), ack)

        ctx.cal.sample()
        factor = ctx.cal.factor()
        factors.append(factor)
        began = time.perf_counter()
        await pool.serve(events(), drain=False, strict=False, on_result=on_result, compile="patch")
        wall = time.perf_counter() - began
        rec.periods.append(Period(wall * factor, wall, 0, traced))
        for client in clients:
            submitted[arrived[client][1].seq] = sent[client]
        return {client: (sent[client], factor, *arrived[client]) for client in clients}

    async def serve_generation(batches: dict[str, list[list[str]]]) -> None:
        clients = list(batches)
        states: dict[str, dict[str, Any] | None] = {c: None for c in clients}
        last_error: dict[str, str | None] = {c: None for c in clients}
        n_rounds = min(len(b) for b in batches.values())
        for r in range(n_rounds):
            outcomes = await serve_round(batches, r)
            # An op's latency runs from when its worker could take it up
            # (its submit, or the worker's previous ack in this round) to
            # its ack: the wait behind the round's other clients is set by
            # the round design and is reported as pool.queue_ms instead.
            free_at: dict[int, float] = {}
            for client, (sent, factor, at, ack) in sorted(outcomes.items(), key=lambda kv: kv[1][2]):
                start = max(sent, free_at.get(ack.worker, sent))
                free_at[ack.worker] = at
                error = ack.error
                if error is None and ack.compiled.get("kind") == "error":
                    error = ack.compiled["error"]
                err_type = error_type(error) if error is not None else None
                if ack.error is None:
                    last_error[client] = err_type
                latency = at - start
                op = Op(latency * factor, latency, err_type, traced)
                rec.ops.append(op)
                if error is None:
                    states[client] = apply_patch(states[client], ack.compiled)
                    stale.caught_up(client, at)
                    rec.periods[-1].successes += 1
                    if traced:
                        rec.layers.add_patch(ack.compiled)
                else:
                    stale.failed(client, op, start, factor)
                if traced and ack.result is not None:
                    rec.layers.add_stage_counts(ack.result)
            if (r + 1) % POOL_ROUNDS_PER_DRAIN == 0 or r + 1 == n_rounds:
                results, ref, wall = ctx.timed(lambda: pool.drain(strict=False))
                rec.periods.append(Period(ref, wall, 0, traced))
                for client in clients:
                    problem = check_page(states[client], results[client].interface, POOL_COMPILE_LIMIT, last_error[client])
                    ctx.check(problem is None, f"pool_daemon {client} after round {r + 1}: {problem}")
        stale.close(time.perf_counter())
        # the generation is done: free its sessions, as a server would
        pool.release(clients)

    async def serve_all() -> None:
        for batches in generations:
            await serve_generation(batches)

    asyncio.run(serve_all())
    factors.sort()
    timed_wall = sum(p.wall_s for p in rec.periods[first_period:])
    return submitted, factors[len(factors) // 2], timed_wall


def _check_daemon_meters(ctx: Context, socket_path: str, workers: list[Any], n_ops: int) -> None:
    """Every pool worker must have reached the daemon: the pool's store
    fails open to local files, which would silently measure local mode."""
    rec = ctx.record
    client = StoreClient(socket_path, client_id=BENCH_CLIENT_ID, timeout=5.0)
    try:
        header, _ = client.call("stats")
    finally:
        client.close()
    meters = header["daemon"]["clients"]
    for worker in workers:
        requests = sum(m["requests"] for cid, m in meters.items() if cid.split("@", 1)[0] == str(worker.pid))
        ctx.check(requests > 0, f"pool_daemon epoch {rec.epochs}: no daemon requests from worker {worker.pid}")
    ctx.check(bool(workers), f"pool_daemon epoch {rec.epochs}: no live pool workers")
    worker_meters = [m for cid, m in meters.items() if cid != BENCH_CLIENT_ID]
    rec.daemon_requests += sum(m["requests"] for m in worker_meters)
    rec.daemon_bytes += sum(m["bytes_in"] + m["bytes_out"] for m in worker_meters)
    rec.daemon_ops += n_ops


def _pool_layers(ctx: Context, acks: list[Any], submitted: dict[int, float], factor: float, timed_wall: float) -> None:
    """Fold a traced epoch's worker spans into the run's layer totals.

    A worker serves its inbox in FIFO order, so its k-th traced append
    is its k-th ack by sequence: the append span's start minus that
    batch's submit time is the batch's queue wait.
    """
    layers = ctx.record.layers
    spans = SpanSet(s for s in ctx.tracer.collect_spilled() if s.pid != ctx.tracer.owner_pid)
    ctx.tracer.take()
    layers.add_spans(spans, factor)
    layers.ops += len(submitted)
    starts: dict[str, list[float]] = {}
    for span in sorted(spans.outermost("api.append_batch"), key=lambda s: s.start):
        starts.setdefault(span.process, []).append(span.start)
    by_worker: dict[str, list[Any]] = {}
    for ack in sorted(acks, key=lambda a: a.seq):
        if ack.seq in submitted:
            by_worker.setdefault(f"repro-session-worker-{ack.worker}", []).append(ack)
    for name, worker_acks in by_worker.items():
        for ack, start in zip(worker_acks, starts.get(name, [])):
            layers.queue_s.append(max(0.0, start - submitted[ack.seq]) * factor)
    for ack in acks:
        layers.service_s.append(ack.seconds * factor)
        layers.busy_s += ack.seconds
    layers.capacity_s += timed_wall * POOL_SIZE


# ----------------------------------------------------------------------
# generate_batch
# ----------------------------------------------------------------------
def generate_log(seed: int, index: int) -> list[str]:
    """The ``index``-th distinct interleaved SDSS log of a run."""
    log = SDSSLogGenerator(seed * 100_003 + index).full_log(GEN_LOG_QUERIES, n_clients=GEN_LOG_CLIENTS)
    return [entry.sql for entry in log.entries]


def generate_batch(ctx: Context) -> None:
    rec = ctx.record
    rec.series = {"cold": [], "warm": []}
    for inputs, traced in ctx.epochs():
        epoch_dir = ctx.work / f"gen-{rec.epochs}"
        try:
            # creating a store takes well under a millisecond, so take
            # several samples per epoch
            for k in range(GEN_STORE_SAMPLES):
                _, ref, wall = ctx.timed(lambda: GraphStore(epoch_dir / str(k)))
                rec.setups.append((ref, wall))
            options = PipelineOptions(cache_dir=str(epoch_dir / "0"))
            first = inputs * GEN_LOGS_PER_STORE
            for index in range(first, first + GEN_LOGS_PER_STORE):
                _generate_pair(ctx, generate_log(ctx.seed, index), options, traced)
        finally:
            shutil.rmtree(epoch_dir, ignore_errors=True)


def _generate_pair(ctx: Context, sql: list[str], options: PipelineOptions, traced: bool) -> None:
    rec = ctx.record
    tracer = ctx.tracer
    if tracer is not None:
        tracer.take()
    cold, cold_ref, cold_wall = ctx.timed(lambda: generate(sql, options=options))
    cold_factor = ctx.cal.factor()
    cold_spans = tracer.take() if traced else []
    warm, warm_ref, warm_wall = ctx.timed(lambda: generate(sql, options=options))
    warm_factor = ctx.cal.factor()
    ref = cold_ref + warm_ref
    wall = cold_wall + warm_wall
    rec.ops.append(Op(ref, wall, None, traced))
    rec.periods.append(Period(ref, wall, 1, traced))
    rec.series["cold"].append((cold_ref, cold_wall, traced))
    rec.series["warm"].append((warm_ref, warm_wall, traced))
    if traced:
        rec.layers.add_spans(SpanSet(cold_spans), cold_factor)
        rec.layers.add_spans(SpanSet(tracer.take()), warm_factor)
        rec.layers.ops += 1
        rec.layers.add_stage_counts(cold)
        rec.layers.add_stage_counts(warm)
    cold_cache = cold.run.stage("cache").stats
    warm_cache = warm.run.stage("cache").stats
    ctx.check(not cold_cache.get("hit"), "generate_batch: the cold run hit the store")
    ctx.check(bool(warm_cache.get("hit")) and bool(warm_cache.get("widgets_hit")),
              f"generate_batch: the warm run missed the store {dict(warm_cache)}")
    ctx.check(
        _interface_identity(warm.interface) == _interface_identity(cold.interface),
        "generate_batch: the warm interface differs from the cold one",
    )


def _interface_identity(interface: Any) -> tuple[Any, list[str]]:
    """Widget domains compare by identity, so interfaces are compared by
    their initial query and the content fingerprint of every widget."""
    return interface.initial_query, [widget_fingerprint(w) for w in interface.widgets]


#: Each workload and the wall time one of its epochs takes on the host the
#: benchmark was written on (sets how many epochs a run of N seconds has).
WORKLOADS: dict[str, tuple[Callable[[Context], None], float]] = {
    "session_grow": (session_grow, 3.0),
    "pool_daemon": (pool_daemon, 5.5),
    "generate_batch": (generate_batch, 1.8),
}
