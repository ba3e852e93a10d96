"""The three benchmark workloads: set-up, measured window, reads, checks.

Run one workload and print its result (the last stdout line is the
JSON result)::

    python3 perfbench/workloads.py --workload ingest --seed 1 --seconds 20 --trace 0

``perfbench/run.py`` is the entry point: it runs this file in a child
process under a watchdog.  Every workload measures the program through
its public API only; the program receives nothing but the generated
``(hi, lo, sizes)`` packet columns.

* ``ingest`` — one inline-shard :class:`MeasurementDaemon` (basic rule,
  d=2, 500 KB) fed a ``caida_like`` trace in a closed loop with
  packet-count rotation (one epoch per pass over the trace), no
  readers during a pass; between passes, the six paper-key
  heavy-hitter reports on the epoch the pass froze.
* ``offline`` — the ``repro measure --shards 2`` path:
  ``ShardedSketch(processes=True)`` with the hash partitioner and the
  hardware rule over a ``mawi_like`` trace, then the six paper-key
  heavy-hitter reports; repeated for the window.
* ``serve`` — the daemon as ``repro serve`` builds it (2 inline shards,
  l=65536, default live view) fed through ``start()``/``offer()`` at a
  fixed offered rate while an open-loop HTTP client queries it; then,
  with the feeder stopped, a closed-loop keep-alive HTTP read probe.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro import obs  # noqa: E402
from repro.engine import kernels  # noqa: E402
from repro.engine.sharded import ShardedSketch, SketchSpec  # noqa: E402
from repro.flowkeys import columns as flowcols  # noqa: E402
from repro.flowkeys.key import FIVE_TUPLE, paper_partial_keys  # noqa: E402
from repro.metrics.accuracy import (  # noqa: E402
    evaluate_heavy_hitters,
    evaluate_heavy_hitters_columns,
)
from repro.query.planner import QueryPlanner  # noqa: E402
from repro.service import (  # noqa: E402
    MeasurementDaemon,
    ServiceConfig,
    ServiceServer,
    offline_epoch_run,
)
from repro.traffic import synthetic  # noqa: E402
from repro.traffic.fast import FastGroundTruth  # noqa: E402
from repro.traffic.trace import Trace  # noqa: E402

import queries  # noqa: E402
from tracer import LAYERS, NullTracer, Tracer  # noqa: E402

WORKLOADS = ("ingest", "offline", "serve")
#: Set-ups per untraced run, before and after the window; ``setup_s``
#: is their median.  The host's speed shifts in steps that last seconds,
#: so the set-ups are spread over the whole run.
SETUPS_BEFORE = 3
SETUPS_AFTER = 3
MEMORY_BYTES = 500 * 1024
#: Per worker on ``offline``: at 500 KB the hardware rule's mean recall
#: on this trace sits at 0.90-0.93 and can miss the Fig 8 floor.
OFFLINE_MEMORY_BYTES = 1024 * 1024
#: Frozen epochs the ``ingest`` daemon retains, so its memory does not
#: grow with how many passes a run completes.
INGEST_HISTORY = 8
#: Reports on the newest frozen ``ingest`` epoch after each pass.
INGEST_READS_PER_PASS = 3
#: The heavy-hitter reports a read makes, one per paper key.
REPORT_KEYS = paper_partial_keys(6)
#: CPUs the workload may run on; samples rotate over them.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
#: Rounds of the ``serve`` closed-loop HTTP read probe; ``reads_per_s``
#: is the median round.
HTTP_PROBE_ROUNDS = 5
#: The ``serve`` window is read in this many consecutive stretches and
#: the p50 latencies come from the calmest one.
SERVE_SLICES = 5
HH_THRESHOLD = 1e-4
#: CPU_TIME_NOTE: set-up, the ``ingest`` passes, the in-process reports
#: and the ``serve`` feeder's blocks are CPU-bound work of this process,
#: so they are timed in CPU seconds (``time.process_time``; the feeder
#: in its thread's).  On an idle host that equals wall time; on a shared
#: VM it leaves out the time the hypervisor runs other guests (steal,
#: 10-15% of a vCPU there), which wall time cannot.  Work the program
#: moves to another thread of the process still counts.  ``offline``
#: pps and the ``serve`` HTTP probe stay in wall time: waiting on worker
#: processes and on the network stack is what they measure.
#: Fig 8 floors the offline heavy-hitter reports must clear (mean over
#: the paper keys, the same mean hh_f1 reports).
RECALL_FLOOR = 0.9
PRECISION_FLOOR = 0.8
#: Frozen epochs whose accuracy is averaged into hh_are / hh_f1.
ACCURACY_EPOCHS = 6
#: Daemon epochs replayed through offline_epoch_run for the blob check.
REPLAY_EPOCHS = 2
OUT_DIR = ROOT / ".perfbench"

#: End-to-end metrics of the untraced runs with their units: the ones
#: in the JSON result (and BENCHMARK.json) ...
END_TO_END = {
    "setup_s": "s",
    "ingest_pps": "pkt/s",
    "reads_per_s": "1/s",
    "hh_f1": "ratio",
    "peak_rss_mb": "MB",
}
#: ... and the ones printed and written out but left out of the result:
#: their run-to-run spread across seeds is wider than any bound the
#: result may carry.  ARE is decided by a handful of colliding heavy
#: hitters on the oversized ``serve`` sketch ...
UNGATED = {"hh_are": "ratio"}
#: ... and the open-loop timings of ``serve`` sit in the few-millisecond
#: range where the interpreter lock's switch interval and a shared
#: 2-vCPU host decide them.
SERVE_UNGATED = {
    "live_query_p50_ms": "ms",
    "history_query_p50_ms": "ms",
    "ingest_lag_p95_ms": "ms",
    "live_query_p95_ms": "ms",
    "history_query_p95_ms": "ms",
}

#: Per-layer metrics (traced runs) with their units.
PER_LAYER = {
    "traffic.generate_s": "s",
    "flowkeys.pack_s": "s",
    "engine.busy_s": "s",
    "engine.packets": "count",
    "engine.ns_per_packet": "ns",
    "engine.stage.hash_s": "s",
    "engine.stage.replace_s": "s",
    "engine.stage.stats_s": "s",
    "engine.replacements": "count",
    "engine.replace_ratio": "ratio",
    "parallel.partition_s": "s",
    "parallel.send_s": "s",
    "parallel.send_mb": "MB",
    "parallel.results_wait_s": "s",
    "parallel.worker_busy_s": "s",
    "parallel.worker_cpu_s": "s",
    "parallel.imbalance": "ratio",
    "parallel.driver_efficiency": "ratio",
    "merging.merge_s": "s",
    "merging.merges": "count",
    "serialize.dump_s": "s",
    "serialize.load_s": "s",
    "serialize.mb": "MB",
    "service.ingest_self_s": "s",
    "service.rotations": "count",
    "service.rotate_s": "s",
    "service.offer_wait_s": "s",
    "service.queue_depth_max": "count",
    "service.live_view_s": "s",
    "service.epoch_planner_s": "s",
    "service.range_planner_s": "s",
    "service.packets_behind_p50": "count",
    "query.table_s": "s",
    "query.cache_hit_ratio": "ratio",
    "query.slim_deltas": "count",
    "query.slim_compactions": "count",
    "query.slim_bootstraps": "count",
    "sql.parse_s": "s",
    "sql.run_self_s": "s",
    "http.roundtrip_s": "s",
    "http.handler_s": "s",
    "http.overhead_s": "s",
    "http.requests": "count",
    "http.failed": "count",
    "obs.trace_overhead": "ratio",
    "ledger.total_s": "s",
}
PER_LAYER.update({f"ledger.{row}_share": "ratio" for row in LAYERS})


@dataclass(frozen=True)
class Sizes:
    """Workload geometry; the self-test runs a shrunken copy."""

    ingest_packets: int = 2_000_000
    ingest_flows: int = 180_000
    ingest_block: int = 65536
    offline_packets: int = 2_000_000
    offline_flows: int = 60_000
    serve_packets: int = 1_000_000
    serve_flows: int = 90_000
    serve_l: int = 65536
    serve_block: int = 16384
    serve_prefill_epochs: int = 1
    # Serve runs well below capacity: on a shared 2-vCPU host, queueing
    # for the interpreter lock multiplies any host slowdown into latency.
    offer_pps: float = 50_000.0
    query_rate: float = 20.0
    queries_per_class: int = 200
    probe_queries: int = 30


TINY = Sizes(
    ingest_packets=60_000,
    ingest_flows=6_000,
    ingest_block=8192,
    offline_packets=60_000,
    offline_flows=3_000,
    serve_packets=40_000,
    serve_flows=4_000,
    serve_l=4096,
    serve_block=4096,
    offer_pps=200_000.0,
    query_rate=100.0,
    queries_per_class=20,
    probe_queries=10,
)


@dataclass
class Tally:
    """Operations attempted/failed and named correctness checks."""

    attempted: int = 0
    failed: int = 0
    checks: List[dict] = field(default_factory=list)

    def ops(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.ops(1, 0 if ok else 1)
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})
        print(f"# check {'PASS' if ok else 'FAIL'} {name} {detail}", flush=True)


@dataclass
class Window:
    """Raw measurements of one workload run (before reduction)."""

    ingest_pps: float = 0.0
    reads_per_s: float = 0.0
    #: ``serve`` only: lateness of each ``offer()`` return.
    lag_s: List[float] = field(default_factory=list)
    #: ``serve`` only: the open-loop client, then each probe round.
    reads: Optional[queries.ClientResult] = None
    probes: List[queries.ClientResult] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)

    def client_results(self) -> List[queries.ClientResult]:
        return ([self.reads] if self.reads is not None else []) + self.probes


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(int(np.ceil(q / 100.0 * len(ordered))), 1)
    return ordered[rank - 1]


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def print_spread(what: str, values: List[float]) -> None:
    """Print how many samples a figure came from and their quartiles."""
    if len(values) < 2:
        return
    q1, q2, q3 = statistics.quantiles(values, n=4)
    print(f"# samples {what}: n={len(values)} q1={q1:.6g} median={q2:.6g} q3={q3:.6g}",
          flush=True)


# ----------------------------------------------------------------------
# shared set-up pieces


def generate(maker, packets: int, flows: int, seed: int):
    """Trace generation plus column packing; only columns leave here."""
    trace = maker(num_packets=packets, num_flows=flows, seed=seed)
    hi, lo = flowcols.pack_key_columns(trace.keys)
    sizes = np.ones(len(lo), dtype=np.int64)
    return hi, lo, sizes


def ground_truth(columns) -> FastGroundTruth:
    """Exact counts over the packets fed, via FastGroundTruth.

    The packets are handed over as a weighted trace of their distinct
    flows (same multiset, one record per flow), which keeps the exact
    aggregation fast at millions of packets.
    """
    hi, lo, sizes = columns
    words, totals = flowcols.group_words(
        flowcols.columns_to_words(hi, lo, FIVE_TUPLE.width), sizes
    )
    weighted = Trace(FIVE_TUPLE, flowcols.unpack_key_words(words), totals.tolist())
    return FastGroundTruth(weighted)


def accuracy(planner: QueryPlanner, truth: FastGroundTruth, total: int):
    """Per paper key ``(name, report)`` at the 1e-4 heavy-hitter threshold."""
    threshold = HH_THRESHOLD * total
    out = []
    for partial in paper_partial_keys(6):
        if partial.width <= 64:
            truth_keys, truth_totals = truth.ground_truth_columns(partial)
            table = planner.table(partial)
            report = evaluate_heavy_hitters_columns(
                table.words[0], table.values, truth_keys, truth_totals, threshold
            )
        else:
            report = evaluate_heavy_hitters(
                planner.sizes(partial), truth.ground_truth(partial), threshold
            )
        out.append((partial.name, report))
    return out


def blocks_of(columns, block: int, passes: int = 1):
    hi, lo, sizes = columns
    for _ in range(passes):
        for start in range(0, len(sizes), block):
            stop = start + block
            yield hi[start:stop], lo[start:stop], sizes[start:stop]


def peak_rss_mb(include_children: bool = False) -> float:
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return rss_kb / 1024.0


def move_to_next_cpu(turn: int) -> None:
    """Start the next sample on the host's next CPU, then unpin.

    On a shared VM each vCPU runs at a speed set by what the host runs
    beside it, and the scheduler keeps a busy thread on one vCPU for
    tens of seconds, so a run would measure whichever vCPU it landed
    on (1.3x apart at times on the 2-vCPU host these figures were taken
    on).  Moving to each CPU in turn makes every run sample all of them
    equally.  The full mask is restored at once, so the program's own
    threads and processes can still use every CPU.
    """
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {CPUS[turn % len(CPUS)]})
        os.sched_setaffinity(0, CPUS)


def report_seconds(make_planner, total: int):
    """``(planner, seconds)`` for the six paper-key reports at 1e-4.

    Times building the planner (*make_planner*) and one thresholded
    table per paper key, as a user reading a finished measurement does,
    in process CPU time (see CPU_TIME_NOTE).
    """
    start = time.process_time()
    planner = make_planner()
    for partial in REPORT_KEYS:
        planner.table(partial).threshold(HH_THRESHOLD * total)
    return planner, time.process_time() - start


def check_live_monotone(reads: queries.ClientResult, tally: Tally, tag: str) -> None:
    for conn, versions in reads.live_versions.items():
        ok = all(a <= b for a, b in zip(versions, versions[1:]))
        tally.check(
            f"live_versions_monotone[{tag}conn{conn}]", ok, f"{len(versions)} live answers"
        )


def record_accuracy(reports_by_epoch, window: Window) -> None:
    ares = [r.are for reports in reports_by_epoch for _, r in reports]
    f1s = [r.f1 for reports in reports_by_epoch for _, r in reports]
    window.extra["hh_are"] = float(np.mean(ares))
    window.extra["hh_f1"] = float(np.mean(f1s))
    for name, report in reports_by_epoch[0]:
        print(
            f"# accuracy {name}: recall={report.recall:.4f} "
            f"precision={report.precision:.4f} are={report.are:.4f}",
            flush=True,
        )


# ----------------------------------------------------------------------
# ingest


class IngestWorkload:
    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes
        self.early: Dict[int, bytes] = {}

    def config(self) -> ServiceConfig:
        spec = SketchSpec.from_memory(
            MEMORY_BYTES, engine="numpy", variant="basic", d=2, seed=self.seed
        )
        return ServiceConfig(
            spec=spec,
            key_spec=FIVE_TUPLE,
            shards=1,
            epoch_packets=self.sizes.ingest_packets,
            history=INGEST_HISTORY,
        )

    def setup(self) -> None:
        s = self.sizes
        self.columns = generate(
            synthetic.caida_like, s.ingest_packets, s.ingest_flows, self.seed
        )
        self.daemon = MeasurementDaemon(self.config())
        # Warm-up on a throwaway daemon: first-call costs stay in set-up.
        warm = MeasurementDaemon(self.config())
        hi, lo, sizes = self.columns
        warm.ingest(hi[: s.ingest_block], lo[: s.ingest_block], sizes[: s.ingest_block])
        warm.close()

    def close(self) -> None:
        self.daemon.close()

    def window(self, seconds: float, tracer, tally: Tally, refuse: bool) -> Window:
        s = self.sizes
        hi, lo, sizes = self.columns
        n = len(sizes)
        win = Window()
        pass_s: List[float] = []
        read_s: List[float] = []
        store = self.daemon.store
        deadline = time.perf_counter() + seconds
        # Stop only halfway through a pass, so every run leaves the same
        # half trace in the live epoch, and only once the blob check has
        # its epochs.
        halfway = (n // 2) // s.ingest_block * s.ingest_block
        done = False
        while not done:
            move_to_next_cpu(len(pass_s))
            pass_start = time.process_time()
            for start in range(0, n, s.ingest_block):
                if (start == halfway and time.perf_counter() >= deadline
                        and len(pass_s) >= REPLAY_EPOCHS):
                    done = True
                    break
                stop = min(start + s.ingest_block, n)
                self.daemon.ingest(hi[start:stop], lo[start:stop], sizes[start:stop])
                tally.ops(1)
            else:
                pass_s.append(time.process_time() - pass_start)
                self._keep_early_epochs()
                # Reads between passes, never during one: the reports on
                # the epoch the pass just froze, each a first read (a
                # fresh planner over a fresh load of the epoch blob, as
                # the daemon's epoch_planner builds it).  Sampled after
                # every pass, so the reads see the same spread of host
                # speeds over the window as the passes do.
                newest = max(store.ids())
                read_s += [
                    report_seconds(lambda: QueryPlanner(store.get(newest).sketch(),
                                                        FIVE_TUPLE), n)[1]
                    for _ in range(INGEST_READS_PER_PASS)
                ]
        # Whole passes and reads only, in process CPU time (see
        # CPU_TIME_NOTE), over every CPU in turn (see move_to_next_cpu).
        win.ingest_pps = n * len(pass_s) / sum(pass_s)
        win.reads_per_s = len(REPORT_KEYS) * len(read_s) / sum(read_s)
        print_spread("passes (pkt/s)", [n / t for t in pass_s])
        print_spread("reads (1/s)", [len(REPORT_KEYS) / t for t in read_s])
        return win

    def full_epochs(self) -> List[int]:
        """Retained epochs that hold exactly one pass over the trace."""
        n = len(self.columns[2])
        store = self.daemon.store
        return [e for e in store.ids() if store.get(e).packets == n]

    def _keep_early_epochs(self) -> None:
        """Copy the first epochs' blobs before the bounded store evicts them."""
        store = self.daemon.store
        for epoch in store.ids():
            if epoch < REPLAY_EPOCHS:
                self.early.setdefault(epoch, store.get(epoch).blob)

    def checks(self, win: Window, tally: Tally, corrupt: bool) -> None:
        epochs = sorted(self.early)
        replay = offline_epoch_run(
            self.config(), blocks_of(self.columns, self.sizes.ingest_block, len(epochs))
        )
        for epoch, ref in zip(epochs, replay):
            blob = self.early[epoch]
            if corrupt:
                blob = blob[:-1] + bytes([blob[-1] ^ 0x01])
            tally.check(
                f"epoch_blob_equals_offline[{epoch}]",
                blob == ref.blob and ref.epoch == epoch,
                f"{len(blob)} bytes",
            )
        tally.check("epoch_blobs_replayed", len(epochs) == REPLAY_EPOCHS,
                     f"{len(epochs)} of {REPLAY_EPOCHS} epochs captured")
        n = len(self.columns[2])
        truth = ground_truth(self.columns)
        reports = [
            accuracy(self.daemon.epoch_planner(e), truth, n)
            for e in self.full_epochs()[-ACCURACY_EPOCHS:]
        ]
        record_accuracy(reports, win)


# ----------------------------------------------------------------------
# offline


class _Replay:
    """A packet source with ``batches()``; counts the blocks it yields."""

    def __init__(self, columns) -> None:
        self.columns = columns
        self.blocks = 0

    def batches(self, block: int):
        for cols in blocks_of(self.columns, block):
            yield cols
            self.blocks += 1


class OfflineWorkload:
    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes
        self.spec = SketchSpec.from_memory(
            OFFLINE_MEMORY_BYTES, engine="numpy", variant="hardware", d=2, seed=seed
        )

    def setup(self) -> None:
        s = self.sizes
        self.columns = generate(
            synthetic.mawi_like, s.offline_packets, s.offline_flows, self.seed
        )
        # Warm-up: one inline engine pass over the first block.
        warm = self.spec.build()
        hi, lo, sizes = self.columns
        warm.process_columns(hi[:65536], lo[:65536], sizes[:65536])

    def close(self) -> None:
        pass

    def one_run(self, tally: Tally):
        n = len(self.columns[2])
        source = _Replay(self.columns)
        start = time.perf_counter()
        sketch = ShardedSketch(self.spec, 2, strategy="hash", processes=True)
        sketch.process(source)
        planner, read_s = report_seconds(lambda: QueryPlanner(sketch, FIVE_TUPLE), n)
        elapsed = time.perf_counter() - start
        tally.ops(source.blocks)
        return sketch, planner, elapsed, read_s

    def window(self, seconds: float, tracer, tally: Tally, refuse: bool) -> Window:
        win = Window()
        n = len(self.columns[2])
        run_s: List[float] = []
        read_s: List[float] = []
        busy = cpu = 0.0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or not run_s:
            move_to_next_cpu(len(run_s))
            sketch, planner, elapsed, read = self.one_run(tally)
            if not run_s:
                self.first = (sketch, planner)
            run_s.append(elapsed)
            read_s.append(read)
            busy += sum(w.elapsed_s for w in sketch.worker_reports)
            cpu += sum(w.cpu_s for w in sketch.worker_reports)
        # Whole runs, as for ingest's passes.
        win.ingest_pps = n * len(run_s) / sum(run_s)
        win.reads_per_s = len(REPORT_KEYS) * len(read_s) / sum(read_s)
        print_spread("runs (pkt/s)", [n / t for t in run_s])
        print_spread("reads (1/s)", [len(REPORT_KEYS) / t for t in read_s])
        win.extra.update({"worker_busy_s": busy, "worker_cpu_s": cpu})
        return win

    def checks(self, win: Window, tally: Tally, corrupt: bool) -> None:
        sketch, planner = self.first
        n = len(self.columns[2])
        total = float(sum(sketch.flow_table().values()))
        tally.check("merged_flow_table_sums_to_packets", total == n, f"{total:.0f} of {n}")
        reports = accuracy(planner, ground_truth(self.columns), n)
        recall = float(np.mean([r.recall for _, r in reports]))
        precision = float(np.mean([r.precision for _, r in reports]))
        tally.check(
            "hh_fig8_floors",
            recall > RECALL_FLOOR and precision > PRECISION_FLOOR,
            f"mean over paper keys: recall={recall:.4f} precision={precision:.4f}",
        )
        record_accuracy([reports], win)


# ----------------------------------------------------------------------
# serve


class ServeWorkload:
    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes
        self.daemon = None
        self.server = None

    def config(self) -> ServiceConfig:
        spec = SketchSpec(engine="numpy", variant="basic", d=2, l=self.sizes.serve_l,
                          seed=self.seed)
        return ServiceConfig(
            spec=spec,
            key_spec=FIVE_TUPLE,
            shards=2,
            epoch_packets=self.sizes.serve_packets,
        )

    def setup(self) -> None:
        s = self.sizes
        self.columns = generate(
            synthetic.caida_like, s.serve_packets, s.serve_flows, self.seed
        )
        self.daemon = MeasurementDaemon(self.config())
        # Warm-up: frozen epochs for the history queries to read.
        for cols in blocks_of(self.columns, s.serve_block, s.serve_prefill_epochs):
            self.daemon.ingest(*cols)
        self.daemon.start()
        self.server = ServiceServer(self.daemon).start()

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
        if self.daemon is not None:
            self.daemon.close()

    def window(self, seconds: float, tracer, tally: Tally, refuse: bool) -> Window:
        s = self.sizes
        daemon = self.daemon
        win = Window()
        block_pps: List[float] = []
        ingest = daemon.ingest

        def timed_ingest(hi, lo, sizes):
            # The feeder thread's own CPU time (see CPU_TIME_NOTE): it
            # leaves out waits for the interpreter lock and the daemon
            # lock, which the lag and latency figures carry.
            t0 = time.thread_time()
            ingest(hi, lo, sizes)
            t1 = time.thread_time()
            block_pps.append(len(sizes) / (t1 - t0))

        daemon.ingest = timed_ingest  # the feeder thread calls self.ingest
        count = max(2 * s.queries_per_class, int(s.query_rate * seconds))
        plan = queries.plan(self.seed, count)
        client = queries.OpenLoopClient(
            self.server.port, plan, s.query_rate,
            newest=max(daemon.store.ids()), tracer=tracer,
            refuse_index=0 if refuse else None, slices=SERVE_SLICES,
        )
        ingested = daemon.registry.counter("service.ingest.blocks")
        offered = 0
        depth_max = 0
        blocks = blocks_of(self.columns, s.serve_block, passes=1 << 30)
        interval = s.serve_block / s.offer_pps
        client.start()
        start = time.perf_counter()
        while client.running() or time.perf_counter() - start < seconds:
            due = start + offered * interval
            wait = due - time.perf_counter()
            if wait > 0:
                with tracer.span("feeder.wait", "idle"):
                    time.sleep(wait)
            daemon.offer(*next(blocks), timeout=30.0)
            win.lag_s.append(time.perf_counter() - due)
            offered += 1
            depth_max = max(depth_max, offered - ingested.value)
            if time.perf_counter() - start > max(seconds, count / s.query_rate) + 60:
                break  # the client is stuck; the join below reports it
        tally.check("client_threads_finished", client.join(30.0),
                    f"{len(client.result.outcomes)} of {count} queries answered or failed")
        daemon.stop_feeder()
        del daemon.ingest
        tally.ops(offered)
        queries.pick_best_slice(client.result)
        win.ingest_pps = median(block_pps)
        win.reads = client.result
        win.extra["queue_depth_max"] = depth_max
        late = client.result.late_s
        print(f"# client send lateness p50={percentile(late, 50) * 1e3:.3f} ms "
              f"p95={percentile(late, 95) * 1e3:.3f} ms over {len(late)} queries",
              flush=True)
        win.reads_per_s = self.read_probe(win, tracer, tally)
        return win

    def read_probe(self, win: Window, tracer, tally: Tally) -> float:
        """Closed-loop keep-alive HTTP reads; queries/s of the median round.

        Runs with the feeder stopped, so every round reads the same
        state: one connection sends the planned mix back to back.
        """
        plan = queries.plan(self.seed, self.sizes.probe_queries)
        rates = []
        for _ in range(HTTP_PROBE_ROUNDS):
            probe = queries.OpenLoopClient(
                self.server.port, plan, math.inf, newest=max(self.daemon.store.ids()),
                tracer=tracer, connections=1,
            )
            start = time.perf_counter()
            probe.start()
            finished = probe.join(60.0)
            rates.append(len(plan) / (time.perf_counter() - start))
            win.probes.append(probe.result)
            if not finished:
                tally.check("probe_thread_finished", False,
                            f"{len(probe.result.outcomes)} of {len(plan)} queries done")
                break
        return median(rates)

    def checks(self, win: Window, tally: Tally, corrupt: bool) -> None:
        history = []
        for tag, reads in [("", win.reads)] + [
            (f"probe{i}.", probe) for i, probe in enumerate(win.probes)
        ]:
            check_live_monotone(reads, tally, tag)
            history += reads.history_answers
        resolve = queries.daemon_resolver(self.daemon)
        mismatched = 0
        for path, rows in history:
            _version, ref = queries.answer(resolve, path)
            if json.loads(json.dumps(ref)) != rows:
                mismatched += 1
        tally.check(
            "history_answers_equal_run_query",
            mismatched == 0,
            f"{mismatched} of {len(history)} differ",
        )
        truth = ground_truth(self.columns)
        n = len(self.columns[2])
        # Each full epoch is one pass over the trace; close() also froze
        # the partial trailing epoch, which the truth does not describe.
        store = self.daemon.store
        full = [e for e in store.ids() if store.get(e).packets == n]
        reports = [
            accuracy(self.daemon.epoch_planner(e), truth, n)
            for e in full[-ACCURACY_EPOCHS:]
        ]
        record_accuracy(reports, win)


MAKERS = {"ingest": IngestWorkload, "offline": OfflineWorkload, "serve": ServeWorkload}


# ----------------------------------------------------------------------
# reduction to metrics


def read_latencies(reads: queries.ClientResult, cls: str, best: bool) -> List[float]:
    """Latencies of one class: the best round/stretch only, or all."""
    return [o.latency_s for o in reads.outcomes
            if o.cls == cls and (not best or o.round == reads.best_round)]


def end_to_end(win: Window, setup_s: float, rss_mb: float) -> Dict[str, float]:
    metrics = {
        "setup_s": setup_s,
        "ingest_pps": win.ingest_pps,
        "reads_per_s": win.reads_per_s,
        "hh_are": win.extra["hh_are"],
        "hh_f1": win.extra["hh_f1"],
        "peak_rss_mb": rss_mb,
    }
    reads = win.reads
    if reads is not None:  # serve: the open-loop timings
        metrics.update({
            "ingest_lag_p95_ms": percentile(win.lag_s, 95) * 1e3,
            "live_query_p50_ms": percentile(read_latencies(reads, "live", True), 50) * 1e3,
            "live_query_p95_ms": percentile(read_latencies(reads, "live", False), 95) * 1e3,
            "history_query_p50_ms":
                percentile(read_latencies(reads, "history", True), 50) * 1e3,
            "history_query_p95_ms":
                percentile(read_latencies(reads, "history", False), 95) * 1e3,
        })
    return metrics


def per_layer(tracer: Tracer, snap: dict, daemon_snap: dict, win: Window,
              untraced_pps: float) -> Dict[str, float]:
    spans = snap.get("spans", {})
    counters = snap.get("counters", {})
    gauges = snap.get("gauges", {})
    dcounters = daemon_snap.get("counters", {})
    dhist = daemon_snap.get("histograms", {})
    c = tracer.counters

    def span_total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    inline_busy = sum(tracer.durations("engine.process_columns"))
    worker_busy = win.extra.get("worker_busy_s", 0.0)
    engine_busy = inline_busy + worker_busy
    engine_packets = c.get("engine.packets", 0) + counters.get("worker.packets", 0)
    replacements = c.get("engine.replacements", 0) + counters.get("sketch.replacements", 0)
    shard_counts = [v for k, v in sorted(c.items()) if k.startswith("parallel.shard.")]
    hits = counters.get("query.cache.hits", 0)
    misses = counters.get("query.cache.misses", 0)
    roundtrips = tracer.durations("http.roundtrip")
    handler = dhist.get("service.query.seconds", {})
    handler_mean = handler["sum"] / handler["count"] if handler.get("count") else 0.0
    roundtrip_mean = float(np.mean(roundtrips)) if roundtrips else 0.0
    rotate = dhist.get("service.rotate.seconds", {})
    outcomes = [o for reads in win.client_results() for o in reads.outcomes]
    http_requests = len(roundtrips)
    metrics = {
        "traffic.generate_s": tracer.self_seconds("traffic."),
        "flowkeys.pack_s": tracer.self_seconds("flowkeys."),
        "engine.busy_s": engine_busy,
        "engine.packets": engine_packets,
        "engine.ns_per_packet": engine_busy / engine_packets * 1e9 if engine_packets else 0.0,
        "engine.stage.hash_s": span_total("pipeline.stage.hash"),
        "engine.stage.replace_s": span_total("pipeline.stage.replace"),
        "engine.stage.stats_s": span_total("pipeline.stage.stats"),
        "engine.replacements": replacements,
        "engine.replace_ratio": replacements / engine_packets if engine_packets else 0.0,
        "parallel.partition_s": tracer.self_seconds("parallel.partition"),
        "parallel.send_s": tracer.self_seconds("parallel.send"),
        "parallel.send_mb": c.get("parallel.send_bytes", 0) / 1e6,
        "parallel.results_wait_s": tracer.self_seconds("parallel.results_wait"),
        "parallel.worker_busy_s": worker_busy,
        "parallel.worker_cpu_s": win.extra.get("worker_cpu_s", 0.0),
        "parallel.imbalance": (
            max(shard_counts) / (sum(shard_counts) / len(shard_counts))
            if shard_counts and sum(shard_counts) else 1.0
        ),
        "parallel.driver_efficiency": gauges.get("shard.driver.efficiency", 0.0),
        "merging.merge_s": tracer.self_seconds("merging."),
        "merging.merges": c.get("merging.merges", 0),
        "serialize.dump_s": tracer.self_seconds("serialize.dump"),
        "serialize.load_s": tracer.self_seconds("serialize.load"),
        "serialize.mb": c.get("serialize.bytes", 0) / 1e6,
        "service.ingest_self_s": tracer.self_seconds("service.ingest"),
        "service.rotations": dcounters.get("service.epochs.rotated", 0),
        "service.rotate_s": rotate.get("sum", 0.0),
        "service.offer_wait_s": tracer.self_seconds("service.offer"),
        "service.queue_depth_max": win.extra.get("queue_depth_max", 0),
        "service.live_view_s": tracer.self_seconds("service.live_view"),
        "service.epoch_planner_s": tracer.self_seconds("service.epoch_planner"),
        "service.range_planner_s": tracer.self_seconds("service.range_planner"),
        "service.packets_behind_p50": (
            median(win.reads.packets_behind) if win.reads and win.reads.packets_behind else 0
        ),
        "query.table_s": tracer.self_seconds("query.table"),
        "query.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "query.slim_deltas": dcounters.get("slim.sync.deltas", 0),
        "query.slim_compactions": dcounters.get("slim.sync.compactions", 0),
        "query.slim_bootstraps": dcounters.get("slim.bootstraps", 0),
        "sql.parse_s": tracer.self_seconds("sql.parse"),
        "sql.run_self_s": tracer.self_seconds("sql.run"),
        "http.roundtrip_s": roundtrip_mean,
        "http.handler_s": handler_mean,
        "http.overhead_s": roundtrip_mean - handler_mean if http_requests else 0.0,
        "http.requests": http_requests,
        "http.failed": sum(1 for o in outcomes if not o.ok) if http_requests else 0,
        "obs.trace_overhead": win.ingest_pps / untraced_pps if untraced_pps else 0.0,
    }
    rows = tracer.ledger()
    total = rows.pop("total")
    metrics["ledger.total_s"] = total
    for row in LAYERS:
        metrics[f"ledger.{row}_share"] = rows[row] / total if total else 0.0
    return metrics


def format_ledger(tracer: Tracer) -> List[str]:
    rows = tracer.ledger()
    total = rows.pop("total")
    lines = [f"# ledger ({'wall' if total else 'empty'} total {total:.3f} s)"]
    for row in LAYERS:
        share = rows[row] / total if total else 0.0
        lines.append(f"#   {row:<14} {rows[row]:10.4f} s  {share:7.2%}")
    return lines


# ----------------------------------------------------------------------
# running one workload


def run_metadata(seed: int, snap: Optional[dict]) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    gauge = (snap or {}).get("gauges", {}).get(kernels.KERNEL_GAUGE)
    codes = {code: name for name, code in kernels.KERNEL_BACKEND_CODES.items()}
    return {
        "seed": seed,
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": kernels.numba_available(),
        "kernel_backend": codes.get(gauge) if gauge is not None
        else kernels.resolve_kernels(None).name,
    }


def execute(workload: str, seed: int, seconds: float, trace: bool,
            sizes: Sizes = Sizes(), corrupt: bool = False,
            refuse: bool = False) -> dict:
    """Run one workload; returns the result record (metrics + checks).

    The self-test's faults: *corrupt* flips a bit of an ``ingest`` epoch
    blob before its check; *refuse* makes the first ``serve`` query name
    an epoch that does not exist.
    """
    make = MAKERS[workload]
    tally = Tally()
    null = NullTracer()
    snap = daemon_snap = None
    tracer = None
    if not trace:
        setup_times = []

        def timed_setup():
            gc.collect()  # each set-up starts from the same heap
            fresh = make(seed, sizes)
            move_to_next_cpu(len(setup_times))
            start = time.process_time()
            fresh.setup()
            setup_times.append(time.process_time() - start)
            return fresh

        for _ in range(SETUPS_BEFORE - 1):
            timed_setup().close()
        job = timed_setup()
        try:
            win = run_job(job, seconds, null, tally, refuse)
        finally:
            job.close()
        # Before the checks: their reference work is not the program's.
        rss_mb = peak_rss_mb(include_children=workload == "offline")
        for _ in range(SETUPS_AFTER):
            timed_setup().close()
        print("# setup_s of each set-up: "
              + " ".join(f"{t:.3f}" for t in setup_times), flush=True)
        job.checks(win, tally, corrupt)
        metrics = end_to_end(win, median(setup_times), rss_mb)
        units = END_TO_END
        printed = dict(END_TO_END, **UNGATED)
        if win.reads is not None:
            printed.update(SERVE_UNGATED)
    else:
        job = make(seed, sizes)
        job.setup()
        try:
            untraced = run_job(job, seconds, null, Tally(), refuse=False)
        finally:
            job.close()
        tracer = Tracer()
        tracer.install()
        try:
            with obs.collecting() as registry:
                with tracer.span("bench.main", "unattributed"):
                    job = make(seed, sizes)
                    job.setup()
                    try:
                        win = run_job(job, seconds, tracer, tally, refuse)
                    finally:
                        job.close()
        finally:
            tracer.uninstall()
        snap = registry.snapshot()
        daemon = getattr(job, "daemon", None)
        daemon_snap = daemon.metrics_snapshot() if daemon is not None else {}
        job.checks(win, tally, corrupt)
        metrics = per_layer(tracer, snap, daemon_snap, win, untraced.ingest_pps)
        units = printed = PER_LAYER
    meta = run_metadata(seed, snap)
    record = {
        "workload": workload,
        "trace": int(trace),
        "meta": meta,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.failed / tally.attempted if tally.attempted else 1.0,
        "checks": tally.checks,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
        "reported": {name: {"value": float(metrics[name]), "unit": printed[name]}
                     for name in printed},
    }
    print(f"# meta {json.dumps(meta, sort_keys=True)}", flush=True)
    for name, entry in record["reported"].items():
        print(f"# metric {name} = {entry['value']:.6g} {entry['unit']}", flush=True)
    print(f"# metric error_rate = {record['error_rate']:.6g} ratio "
          f"({tally.failed} failed of {tally.attempted})", flush=True)
    if tracer is not None:
        for line in format_ledger(tracer):
            print(line, flush=True)
        print("# repro.obs snapshot of the traced run:", flush=True)
        for line in obs.format_snapshot(snap).splitlines():
            print(f"#   {line}", flush=True)
    write_out(record, tracer, snap, daemon_snap)
    return record


def run_job(job, seconds: float, tracer, tally: Tally, refuse: bool) -> Window:
    """The measured window plus its reads; counts the read operations."""
    win = job.window(seconds, tracer, tally, refuse)
    for reads in win.client_results():
        tally.ops(len(reads.outcomes), sum(1 for o in reads.outcomes if not o.ok))
    return win


def write_out(record: dict, tracer: Optional[Tracer], snap, daemon_snap) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / (
        f"{record['workload']}-seed{record['meta']['seed']}-trace{record['trace']}.json"
    )
    payload = dict(record)
    if tracer is not None:
        payload["registry"] = snap
        payload["daemon_metrics"] = daemon_snap
        payload["spans"] = tracer.dump()
    with open(path, "w") as fh:
        json.dump(payload, fh)
    print(f"# wrote {path.relative_to(ROOT)}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:  # the run's boundary: report, then fail the run
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
