"""Tests for the sharded multi-worker pipeline (engine.sharded + parallel).

Three layers of guarantees:

* partitioning properties (flow purity, order preservation, determinism),
* ``shards=1`` bit-identity with the unsharded engines, and
* the statistical gate — a 4-worker run's per-flow estimates are
  unbiased and its partial-key error profile matches the single-sketch
  reference within the harness margins (:mod:`tests.stat_harness`).
"""

import numpy as np
import pytest

from repro.core.serialize import dump_sketch, load_sketch
from repro.engine import get_engine
from repro.engine.sharded import (
    PARTITION_STRATEGIES,
    ShardedSketch,
    SketchSpec,
    partition_columns,
    shard_assignments,
)
from repro.flowkeys.key import FIVE_TUPLE
from repro.parallel import (
    STREAM_BATCH,
    WORKER_CREDITS,
    StreamDriver,
    run_sharded,
    stream_batch_for,
    worker_seed,
)
from repro.tasks.harness import FullKeyEstimator
from repro.traffic.synthetic import zipf_trace
from tests.stat_harness import (
    assert_error_profile,
    assert_unbiased,
    trial_estimates,
)


def _columns(trace):
    return next(trace.batches(len(trace)))


def _total_mass(sketch) -> float:
    vals = sketch._vals
    if hasattr(vals, "sum"):
        return float(vals.sum())
    return float(sum(sum(row) for row in vals))


class TestPartitioning:
    def test_assignments_in_range_and_deterministic(self, tiny_trace):
        hi, lo, _ = _columns(tiny_trace)
        a1 = shard_assignments(hi, lo, 4, "hash", seed=7)
        a2 = shard_assignments(hi, lo, 4, "hash", seed=7)
        assert a1.min() >= 0 and a1.max() < 4
        assert np.array_equal(a1, a2)

    def test_seed_changes_hash_partition(self, tiny_trace):
        hi, lo, _ = _columns(tiny_trace)
        a1 = shard_assignments(hi, lo, 4, "hash", seed=7)
        a2 = shard_assignments(hi, lo, 4, "hash", seed=8)
        assert not np.array_equal(a1, a2)

    def test_hash_partition_is_flow_pure(self, tiny_trace):
        hi, lo, _ = _columns(tiny_trace)
        assign = shard_assignments(hi, lo, 4, "hash", seed=3)
        shard_of = {}
        for h, l_, a in zip(hi.tolist(), lo.tolist(), assign.tolist()):
            assert shard_of.setdefault((h, l_), a) == a

    def test_round_robin_deals_in_order(self, tiny_trace):
        hi, lo, _ = _columns(tiny_trace)
        assign = shard_assignments(hi, lo, 3, "round-robin")
        expected = np.arange(len(lo), dtype=np.int64) % 3
        assert np.array_equal(assign, expected)

    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    def test_partition_conserves_packets_and_mass(self, tiny_trace, strategy):
        hi, lo, sizes = _columns(tiny_trace)
        parts = partition_columns(hi, lo, sizes, 4, strategy, seed=1)
        assert len(parts) == 4
        assert sum(len(s) for _, _, s in parts) == len(sizes)
        assert sum(int(s.sum()) for _, _, s in parts) == int(sizes.sum())

    def test_partition_preserves_arrival_order(self, tiny_trace):
        hi, lo, sizes = _columns(tiny_trace)
        order = np.arange(len(sizes), dtype=np.int64)
        assign = shard_assignments(hi, lo, 4, "hash", seed=1)
        for shard in range(4):
            within = order[assign == shard]
            assert np.array_equal(within, np.sort(within))

    def test_single_shard_takes_everything(self, tiny_trace):
        hi, lo, sizes = _columns(tiny_trace)
        (only,) = partition_columns(hi, lo, sizes, 1, "hash", seed=1)
        assert np.array_equal(only[0], hi)
        assert np.array_equal(only[1], lo)
        assert np.array_equal(only[2], sizes)

    def test_validation(self, tiny_trace):
        hi, lo, _ = _columns(tiny_trace)
        with pytest.raises(ValueError):
            shard_assignments(hi, lo, 0)
        with pytest.raises(ValueError):
            shard_assignments(hi, lo, 2, strategy="modulo")
        with pytest.raises(ValueError):
            ShardedSketch(SketchSpec(), 0)
        with pytest.raises(ValueError):
            ShardedSketch(SketchSpec(), 2, strategy="modulo")

    def test_worker_seeds_decorrelated_but_reproducible(self):
        seeds = [worker_seed(5, shard) for shard in range(8)]
        assert len(set(seeds)) == 8
        assert seeds == [worker_seed(5, shard) for shard in range(8)]


class TestShardsOneBitIdentity:
    """shards=1 replays the unsharded execution exactly (satellite 2)."""

    @pytest.mark.parametrize("engine", ["scalar", "numpy"])
    def test_state_bit_identical(self, tiny_trace, engine):
        spec = SketchSpec(engine=engine, variant="basic", d=2, l=128, seed=11)
        plain = spec.build()
        plain.process(tiny_trace)
        sharded = ShardedSketch(spec, 1, processes=False)
        sharded.process(tiny_trace)
        assert dump_sketch(sharded.merged) == dump_sketch(plain)

    @pytest.mark.parametrize("engine", ["scalar", "numpy"])
    def test_estimator_tables_identical(self, tiny_trace, engine):
        def build():
            return get_engine(engine).cocosketch(d=2, l=128, seed=11)

        ref = FullKeyEstimator(build(), FIVE_TUPLE)
        ref.process(tiny_trace)
        est = FullKeyEstimator(
            build(), FIVE_TUPLE, shards=1, shard_processes=False
        )
        est.process(tiny_trace)
        for partial in (FIVE_TUPLE.partial("SrcIP"), FIVE_TUPLE.partial("DstIP")):
            assert est.table(partial) == ref.table(partial)

    @pytest.mark.parametrize("engine", ["scalar", "numpy"])
    def test_hardware_variant_bit_identical(self, tiny_trace, engine):
        spec = SketchSpec(engine=engine, variant="hardware", d=2, l=128, seed=4)
        plain = spec.build()
        plain.process(tiny_trace)
        sharded = ShardedSketch(spec, 1, processes=False)
        sharded.process(tiny_trace)
        assert dump_sketch(sharded.merged) == dump_sketch(plain)


class TestShardedPipeline:
    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    def test_mass_conserved(self, tiny_trace, strategy):
        spec = SketchSpec(engine="numpy", d=2, l=256, seed=2)
        sketch = ShardedSketch(spec, 4, strategy=strategy, processes=False)
        sketch.process(tiny_trace)
        assert _total_mass(sketch.merged) == tiny_trace.total_size

    def test_pool_matches_serial_bit_for_bit(self, tiny_trace):
        spec = SketchSpec(engine="scalar", d=2, l=128, seed=6)
        serial = ShardedSketch(spec, 2, processes=False)
        serial.process(tiny_trace)
        pooled = ShardedSketch(spec, 2, processes=2)
        pooled.process(tiny_trace)
        assert dump_sketch(pooled.merged) == dump_sketch(serial.merged)

    def test_repeated_process_accumulates(self, tiny_trace):
        spec = SketchSpec(engine="numpy", d=2, l=256, seed=2)
        sketch = ShardedSketch(spec, 2, processes=False)
        sketch.process(tiny_trace)
        sketch.process(tiny_trace)
        assert _total_mass(sketch.merged) == 2 * tiny_trace.total_size

    def test_reset_restores_fresh_pipeline(self, tiny_trace):
        spec = SketchSpec(engine="numpy", d=2, l=256, seed=2)
        sketch = ShardedSketch(spec, 2, processes=False)
        sketch.process(tiny_trace)
        first = dump_sketch(sketch.merged)
        sketch.reset()
        assert sketch.merged is None
        assert sketch.flow_table() == {}
        assert sketch.query(123) == 0.0
        sketch.process(tiny_trace)
        assert dump_sketch(sketch.merged) == first

    def test_update_paths_refused(self):
        sketch = ShardedSketch(SketchSpec(), 2, processes=False)
        with pytest.raises(NotImplementedError):
            sketch.update(1, 1)
        with pytest.raises(NotImplementedError):
            sketch.update_batch(([1], [2]), [1])

    def test_memory_accounts_all_workers(self):
        spec = SketchSpec(d=2, l=128)
        assert (
            ShardedSketch(spec, 4).memory_bytes()
            == 4 * spec.build().memory_bytes()
        )

    def test_run_sharded_reports_in_shard_order(self, tiny_trace):
        spec = SketchSpec(engine="scalar", d=2, l=128, seed=6)
        hi, lo, sizes = _columns(tiny_trace)
        parts = partition_columns(hi, lo, sizes, 3, "hash", spec.seed)
        blobs, reports, wall, metrics_blobs = run_sharded(
            spec, parts, processes=False
        )
        assert [r.shard for r in reports] == [0, 1, 2]
        assert sum(r.packets for r in reports) == len(sizes)
        assert wall >= 0.0
        assert metrics_blobs == [None, None, None]
        assert all(
            load_sketch(blob).flow_table() is not None for blob in blobs
        )

    def test_estimator_shards_mode_rejects_double_sharding(self):
        sharded = ShardedSketch(SketchSpec(), 2)
        with pytest.raises(ValueError):
            FullKeyEstimator(sharded, FIVE_TUPLE, shards=2)

    def test_spec_from_deserialized_sketch_fails_loudly(self):
        sketch = load_sketch(dump_sketch(SketchSpec(d=1, l=8).build()))
        with pytest.raises(ValueError):
            SketchSpec.from_sketch(sketch)


def _random_columns(n, seed):
    """Skewed synthetic ``(hi, lo, sizes)`` columns, cheap at any size."""
    rng = np.random.default_rng(seed)
    flows = rng.zipf(1.3, n).astype(np.uint64) % np.uint64(5_000)
    hi = flows * np.uint64(0x9E3779B1)
    lo = flows ^ np.uint64(0xA5A5)
    return hi, lo, rng.integers(1, 4, n, dtype=np.int64)


class _Columns:
    """A columnar packet source over fixed ``(hi, lo, sizes)`` arrays."""

    def __init__(self, columns):
        self.columns = columns

    def batches(self, block):
        hi, lo, sizes = self.columns
        for start in range(0, len(sizes), block):
            stop = start + block
            yield hi[start:stop], lo[start:stop], sizes[start:stop]


def _driver_blobs(driver):
    return [blob for _, blob, *_ in sorted(driver.results())]


class TestWorkerRing:
    """Worker processes (shared-memory slot ring) == inline, bit for bit."""

    @pytest.mark.parametrize("variant", ["basic", "hardware"])
    @pytest.mark.parametrize(
        "shards,processes", [(2, True), (3, 2)], ids=["2-procs", "3-on-2"]
    )
    def test_processes_match_inline(self, small_trace, variant, shards, processes):
        # 3 shards on 2 processes: one worker's ring carries two shards.
        spec = SketchSpec(engine="numpy", variant=variant, d=2, l=512, seed=8)
        inline = ShardedSketch(spec, shards, processes=False)
        inline.process(small_trace)
        pooled = ShardedSketch(spec, shards, processes=processes)
        pooled.process(small_trace)
        assert dump_sketch(pooled.merged) == dump_sketch(inline.merged)

    def test_large_batch_size_sizes_the_slot(self):
        batch = STREAM_BATCH + 4096
        spec = SketchSpec(engine="numpy", variant="hardware", d=2, l=2048, seed=9)
        driver = StreamDriver(spec, 1, processes=True, batch_size=batch)
        assert driver.slot_packets == stream_batch_for(batch) == batch
        list(driver.results())
        source = _Columns(_random_columns(2 * batch + 1000, seed=3))
        inline = ShardedSketch(spec, 2, processes=False, batch_size=batch)
        inline.process(source)
        pooled = ShardedSketch(spec, 2, processes=True, batch_size=batch)
        pooled.process(source)
        assert dump_sketch(pooled.merged) == dump_sketch(inline.merged)

    def test_slots_recycle_across_many_sends(self):
        # Far more sends per worker than it has slots: credits must
        # come back through the free-slot queue.
        spec = SketchSpec(engine="numpy", variant="hardware", d=2, l=1024, seed=2)
        hi, lo, sizes = _random_columns(30_000, seed=4)
        step = 500
        assert len(sizes) // step > 3 * WORKER_CREDITS
        blobs = []
        for processes in (False, 2):
            driver = StreamDriver(spec, 3, processes=processes)
            for k, start in enumerate(range(0, len(sizes), step)):
                stop = start + step
                driver.send(k % 3, hi[start:stop], lo[start:stop], sizes[start:stop])
            blobs.append(_driver_blobs(driver))
        assert blobs[0] == blobs[1]

    def test_mid_stream_resize_matches_inline(self):
        spec = SketchSpec(engine="numpy", variant="basic", d=2, l=1024, seed=5)
        hi, lo, sizes = _random_columns(24_000, seed=6)
        half = len(sizes) // 2
        blobs = []
        for processes in (False, True):
            driver = StreamDriver(spec, 2, processes=processes)
            for start, stop in ((0, half), (half, len(sizes))):
                parts = partition_columns(
                    hi[start:stop], lo[start:stop], sizes[start:stop],
                    2, "hash", spec.seed, offset=start,
                )
                for shard, (shi, slo, ssz) in enumerate(parts):
                    driver.send(shard, shi, slo, ssz)
                if start == 0:
                    driver.resize(384, base_seed=17)
            blobs.append(_driver_blobs(driver))
        assert blobs[0] == blobs[1]
        assert load_sketch(blobs[1][0]).l == 384

    def test_send_beyond_one_slot_raises(self):
        spec = SketchSpec(engine="numpy", d=2, l=256, seed=1)
        driver = StreamDriver(spec, 1, processes=True)
        n = driver.slot_packets + 1
        column = np.zeros(n, dtype=np.uint64)
        with pytest.raises(ValueError, match="exceeds one ring slot"):
            driver.send(0, column, column, np.ones(n, dtype=np.int64))
        (result,) = list(driver.results())
        assert result[2] == 0  # nothing reached the worker


class TestShardedStatistics:
    """The statistical gate: sharded estimates behave like Theorem 1 says."""

    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    def test_four_worker_estimates_unbiased_per_flow(
        self, tiny_trace, strategy
    ):
        key = max(tiny_trace.full_counts(), key=tiny_trace.full_counts().get)
        truth = tiny_trace.full_counts()[key]

        def estimate(seed: int) -> float:
            spec = SketchSpec(engine="scalar", d=2, l=128, seed=seed)
            sketch = ShardedSketch(
                spec, 4, strategy=strategy, processes=False
            )
            sketch.process(tiny_trace)
            return sketch.query(key)

        samples = trial_estimates(estimate, trials=30, base_seed=60)
        assert_unbiased(
            samples, truth, label=f"4-shard {strategy} heavy-flow estimate"
        )

    def test_sharded_error_profile_matches_single_sketch(self, small_trace):
        """4-worker partial-key ARE within harness margin of one sketch.

        The Theorem 1 fold is unbiased but adds variance (a collided
        bucket's whole mass goes to one surviving key), so at a
        light-load operating point the sharded ARE sits a small constant
        above the single-sketch ARE.  The harness's 2-point absolute
        floor budgets exactly that fold cost; a biased or broken merge
        lands far outside it (an overloaded sketch shows +12 points).
        """
        partial = FIVE_TUPLE.partial("SrcIP")
        truth = small_trace.ground_truth(partial)
        threshold = 2e-3 * small_trace.total_size
        heavy = {k: v for k, v in truth.items() if v >= threshold}
        assert heavy

        def are_of(table) -> float:
            return sum(
                abs(table.get(k, 0.0) - v) / v for k, v in heavy.items()
            ) / len(heavy)

        def run_pair(seed: int):
            def build():
                return get_engine("numpy").cocosketch(d=2, l=16384, seed=seed)

            single = FullKeyEstimator(build(), FIVE_TUPLE)
            single.process(small_trace)
            sharded = FullKeyEstimator(
                build(), FIVE_TUPLE, shards=4, shard_processes=False
            )
            sharded.process(small_trace)
            return are_of(sharded.table(partial)), are_of(single.table(partial))

        pairs = [run_pair(1000 + i) for i in range(8)]
        assert_error_profile(
            [c for c, _ in pairs],
            [r for _, r in pairs],
            abs_floor=0.02,
            label="4-shard SrcIP ARE",
        )


class TestShardedThroughputReporting:
    def test_reports_cover_all_workers(self, tiny_trace):
        spec = SketchSpec(engine="numpy", d=2, l=256, seed=5)
        sketch = ShardedSketch(spec, 4, processes=False)
        sketch.process(tiny_trace)
        result = sketch.throughput()
        assert result.shards == 4
        assert result.packets == len(tiny_trace)
        assert result.aggregate_pps > 0
        assert len(result.worker_pps) == 4
        assert result.capacity_pps == pytest.approx(sum(result.worker_pps))
        assert result.capacity_pps >= max(result.worker_pps)
        assert result.load_imbalance >= 1.0
        assert "4 worker(s)" in result.summary()

    def test_cli_estimator_path_reports(self, tiny_trace):
        est = FullKeyEstimator(
            get_engine("numpy").cocosketch(d=2, l=256, seed=5),
            FIVE_TUPLE,
            shards=2,
            shard_processes=False,
        )
        est.process(tiny_trace)
        assert est.sketch.throughput().shards == 2
