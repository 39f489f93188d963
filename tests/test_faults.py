"""Fault-injection layer: NAND retries, CRC retransmits, bad blocks,
chip failures, and checkpoint/resume."""

import numpy as np
import pytest

from repro.common import (
    ConfigError,
    FaultConfig,
    FaultExhaustedError,
    FlashWalkerConfig,
    RngRegistry,
    SimulationError,
)
from repro.common.config import SSDConfig
from repro.core import FlashWalker
from repro.faults import FaultModel
from repro.flash.channel import FlashChannel
from repro.flash.nand import FlashChip
from repro.flash.ssd import SSD
from repro.graph import rmat
from repro.walks import WalkSpec


@pytest.fixture(scope="module")
def graph():
    return rmat(10, 8, RngRegistry(55).fresh("g"))


def result_key(res):
    """Everything a RunResult asserts equality on, hashable."""
    return (
        res.elapsed,
        res.hops,
        res.flash_read_bytes,
        res.flash_write_bytes,
        res.channel_bytes,
        res.dram_bytes,
        tuple(sorted(res.counters.items())),
    )


class TestFaultConfig:
    def test_default_disabled(self):
        cfg = FlashWalkerConfig()
        assert cfg.faults.enabled is False

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(page_error_rate=1.5),
            dict(page_error_rate=-0.1),
            dict(retry_success_prob=0.0),
            dict(max_read_retries=0),
            dict(retry_backoff=0.0),
            dict(crc_error_rate=2.0),
            dict(max_crc_retries=0),
            dict(crc_retry_delay=-1.0),
            dict(rebuild_read_factor=0.5),
            dict(failover_latency=-1.0),
            dict(checkpoint_interval=-1.0),
            dict(chip_failures=((-1.0, 0),)),
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            FaultConfig(enabled=True, **kwargs).validate()

    def test_chip_failure_out_of_range_rejected(self):
        cfg = FlashWalkerConfig().replace(
            faults=FaultConfig(enabled=True, chip_failures=((1e-3, 10**6),))
        )
        with pytest.raises(ConfigError):
            cfg.validate()


class TestFaultModel:
    def make(self, seed=0, **kwargs):
        cfg = FaultConfig(enabled=True, **kwargs).validate()
        return FaultModel(cfg, np.random.default_rng(seed))

    def test_zero_rate_never_faults(self):
        fm = self.make(page_error_rate=0.0, crc_error_rate=0.0)
        assert all(fm.draw_read() == 0 for _ in range(200))
        assert all(fm.draw_transfer() == 0 for _ in range(200))
        assert fm.read_faults == 0 and fm.crc_errors == 0

    def test_certain_fault_certain_recovery(self):
        fm = self.make(page_error_rate=1.0, retry_success_prob=0.999999)
        assert fm.draw_read() == 1
        assert fm.read_faults == 1 and fm.read_retries == 1

    def test_exhaustion(self):
        fm = self.make(
            page_error_rate=1.0, retry_success_prob=1e-12, max_read_retries=3
        )
        assert fm.draw_read() == -1
        assert fm.read_retries == 3 and fm.reads_exhausted == 1

    def test_retry_latency_escalates(self):
        fm = self.make(retry_backoff=2.0)
        base = 35e-6
        assert fm.read_retry_latency(base, 1) == pytest.approx(base * 2)
        assert fm.read_retry_latency(base, 3) == pytest.approx(base * (2 + 4 + 8))

    def test_crc_delay_backoff(self):
        fm = self.make(crc_retry_delay=1e-6, crc_backoff=2.0)
        assert fm.crc_delay(1) == pytest.approx(1e-6)
        assert fm.crc_delay(3) == pytest.approx(4e-6)

    def test_determinism_same_seed(self):
        draws1 = [self.make(seed=7, page_error_rate=0.5).draw_read() for _ in [0]]
        draws2 = [self.make(seed=7, page_error_rate=0.5).draw_read() for _ in [0]]
        assert draws1 == draws2

    def test_fail_chip_idempotent(self):
        fm = self.make()
        assert fm.fail_chip(3) is True
        assert fm.fail_chip(3) is False
        assert fm.is_failed(3) and not fm.is_failed(4)
        assert fm.chip_failures == 1

    def test_stats_keys(self):
        s = self.make().stats()
        assert set(s) == {
            "fault_read_faults",
            "fault_read_retries",
            "fault_reads_exhausted",
            "fault_bad_block_remaps",
            "fault_crc_errors",
            "fault_crc_retries",
            "fault_crc_resets",
            "fault_chip_failures",
        }


class TestNandRetries:
    def chip(self, fault_cfg, seed=0):
        c = FlashChip(0, SSDConfig())
        c.fault_model = FaultModel(
            fault_cfg.validate(), np.random.default_rng(seed)
        )
        return c

    def test_retry_charges_extra_latency(self):
        clean = FlashChip(0, SSDConfig())
        t_clean = clean.read_page(0.0, 0, 0)
        faulty = self.chip(
            FaultConfig(
                enabled=True, page_error_rate=1.0, retry_success_prob=0.999999
            )
        )
        t_faulty = faulty.read_page(0.0, 0, 0)
        assert t_faulty > t_clean
        # one rung at backoff 1.5: extra = read_latency * 1.5
        assert t_faulty == pytest.approx(
            t_clean + SSDConfig().read_latency * 1.5
        )

    def test_exhaustion_raises_without_recovery(self):
        faulty = self.chip(
            FaultConfig(
                enabled=True,
                page_error_rate=1.0,
                retry_success_prob=1e-12,
                remap_on_exhaustion=False,
            )
        )
        with pytest.raises(FaultExhaustedError) as ei:
            faulty.read_page(0.0, 0, 0)
        assert ei.value.at > 0.0

    def test_exhaustion_remaps_and_notifies(self):
        faulty = self.chip(
            FaultConfig(
                enabled=True, page_error_rate=1.0, retry_success_prob=1e-12
            )
        )
        seen = []
        faulty.on_bad_block = lambda cid, die, pl: seen.append((cid, die, pl))
        t = faulty.read_page(0.0, 0, 0)
        assert seen == [(0, 0, 0)]
        assert faulty.fault_model.bad_block_remaps == 1
        # remap charges a heroic decode + a program on top of the ladder
        assert t > SSDConfig().read_latency * 2

    def test_retries_do_not_inflate_byte_counters(self):
        faulty = self.chip(
            FaultConfig(
                enabled=True, page_error_rate=1.0, retry_success_prob=0.999999
            )
        )
        faulty.read_page(0.0, 0, 0)
        assert faulty.reads == 1
        assert faulty.bytes_read == SSDConfig().page_bytes


class TestChannelCrc:
    def channel(self, fault_cfg, seed=0):
        ch = FlashChannel(0, SSDConfig())
        ch.fault_model = FaultModel(
            fault_cfg.validate(), np.random.default_rng(seed)
        )
        return ch

    def test_retransmit_charges_bus_twice(self):
        clean = FlashChannel(0, SSDConfig())
        t_clean = clean.transfer_data(0.0, 4096)
        faulty = self.channel(
            FaultConfig(
                enabled=True, crc_error_rate=1.0, crc_retry_success_prob=0.999999
            )
        )
        t_faulty = faulty.transfer_data(0.0, 4096)
        assert t_faulty > 2 * t_clean  # full retransmission + pause
        assert faulty.fault_model.crc_errors == 1
        assert faulty.fault_model.crc_retries == 1

    def test_exhaustion_resets_link(self):
        faulty = self.channel(
            FaultConfig(
                enabled=True,
                crc_error_rate=1.0,
                crc_retry_success_prob=1e-12,
                max_crc_retries=2,
            )
        )
        t = faulty.transfer_data(0.0, 4096)
        assert faulty.fault_model.crc_resets == 1
        assert t > FaultConfig().crc_reset_latency

    def test_exhaustion_raises_without_recovery(self):
        faulty = self.channel(
            FaultConfig(
                enabled=True, crc_error_rate=1.0, crc_retry_success_prob=1e-12
            )
        )
        with pytest.raises(FaultExhaustedError):
            faulty.transfer_data(0.0, 4096, recover=False)

    def test_commands_stay_clean(self):
        faulty = self.channel(
            FaultConfig(enabled=True, crc_error_rate=1.0)
        )
        faulty.send_command(0.0)
        assert faulty.fault_model.crc_errors == 0


class TestFtlBadBlocks:
    def test_retire_active_block(self):
        ssd = SSD(SSDConfig())
        ftl = ssd.ftl
        # Map some pages so the copy-forward path has work.
        ftl.place_striped(2, 4)
        free_before = len(ftl._free_list[0])
        victim = ftl.retire_active_block(0)
        stats = ftl.wear_stats()
        assert stats["bad_blocks"] == 1
        assert victim in ftl.bad_blocks_on(0)
        # The victim never returns: one block permanently gone.
        assert len(ftl._free_list[0]) <= free_before
        assert victim not in ftl._free_list[0]
        assert ftl.bad_block_count == 1

    def test_wear_stats_has_new_keys(self):
        ssd = SSD(SSDConfig())
        stats = ssd.ftl.wear_stats()
        assert stats["bad_blocks"] == 0
        assert stats["bad_block_moved_pages"] == 0


class TestEngineWithFaults:
    def test_page_errors_complete_and_slow_down(self, graph):
        base = FlashWalker(graph, seed=9).run(
            num_walks=600, spec=WalkSpec(length=5)
        )
        cfg = FlashWalkerConfig().replace(
            faults=FaultConfig(enabled=True, page_error_rate=0.5)
        )
        res = FlashWalker(graph, cfg, seed=9).run(
            num_walks=600, spec=WalkSpec(length=5)
        )
        assert int(res.counters["walks_completed"]) == 600
        assert res.counters["fault_read_faults"] > 0
        assert res.elapsed > base.elapsed

    def test_crc_errors_complete(self, graph):
        cfg = FlashWalkerConfig().replace(
            faults=FaultConfig(enabled=True, crc_error_rate=0.2)
        )
        res = FlashWalker(graph, cfg, seed=9).run(
            num_walks=600, spec=WalkSpec(length=5)
        )
        assert int(res.counters["walks_completed"]) == 600
        assert res.counters["fault_crc_errors"] > 0

    def test_chip_failure_migrates_blocks(self, graph):
        probe = FlashWalker(graph, seed=9)
        victim = int(probe.block_chip[0])
        cfg = FlashWalkerConfig().replace(
            faults=FaultConfig(enabled=True, chip_failures=((50e-6, victim),))
        )
        fw = FlashWalker(graph, cfg, seed=9)
        res = fw.run(num_walks=800, spec=WalkSpec(length=5))
        assert int(res.counters["walks_completed"]) == 800
        assert res.counters["chips_failed"] == 1
        assert res.counters["fault_chip_failures"] == 1
        # No block remains on the dead chip, and its accelerator is off.
        assert not np.any(fw.block_chip == victim)
        assert fw.chips[victim].failed

    def test_failure_run_deterministic(self, graph):
        probe = FlashWalker(graph, seed=9)
        victim = int(probe.block_chip[0])
        cfg = FlashWalkerConfig().replace(
            faults=FaultConfig(
                enabled=True,
                page_error_rate=0.2,
                chip_failures=((50e-6, victim),),
            )
        )
        r1 = FlashWalker(graph, cfg, seed=9).run(
            num_walks=600, spec=WalkSpec(length=5)
        )
        r2 = FlashWalker(graph, cfg, seed=9).run(
            num_walks=600, spec=WalkSpec(length=5)
        )
        assert result_key(r1) == result_key(r2)


class TestCheckpointResume:
    CFG = dict(page_error_rate=0.2, checkpoint_interval=50e-6)
    # Force walks through the chip path (and across partitions) so the
    # run spans many events — a board-hot-resident graph collapses into
    # one synchronous cascade that max_events cannot interrupt.
    ENGINE = dict(
        partition_subgraphs=4, board_hot_subgraphs=1, channel_hot_subgraphs=0
    )

    def run_full(self, graph, **spec_kw):
        cfg = FlashWalkerConfig().replace(
            **self.ENGINE, faults=FaultConfig(enabled=True, **self.CFG)
        )
        fw = FlashWalker(graph, cfg, seed=9)
        res = fw.run(num_walks=800, spec=WalkSpec(length=5), **spec_kw)
        assert res.counters["checkpoints_taken"] >= 1
        # Kill a replay a handful of events before the finish line, well
        # past the last checkpoint.
        return cfg, res, fw.sim.events_executed - 5

    def crash(self, graph, cfg, max_events, **spec_kw):
        fw = FlashWalker(graph, cfg, seed=9)
        with pytest.raises(SimulationError):
            fw.run(
                num_walks=800,
                spec=WalkSpec(length=5),
                max_events=max_events,
                **spec_kw,
            )
        assert fw.latest_checkpoint is not None
        return fw

    def test_checkpoints_taken(self, graph):
        _, res, _ = self.run_full(graph)
        assert res.counters["checkpoints_taken"] >= 1

    def test_resume_reproduces_uninterrupted_run(self, graph):
        cfg, full, cut = self.run_full(graph)
        fw = self.crash(graph, cfg, cut)
        resumed = fw.resume()
        assert result_key(resumed) == result_key(full)

    def test_resume_on_fresh_instance(self, graph):
        cfg, full, cut = self.run_full(graph)
        crashed = self.crash(graph, cfg, cut)
        fresh = FlashWalker(graph, cfg, seed=9)
        resumed = fresh.resume(checkpoint=crashed.latest_checkpoint)
        assert result_key(resumed) == result_key(full)

    def test_resume_preserves_finals(self, graph):
        cfg, full, cut = self.run_full(graph, record_finals=True)
        fw = self.crash(graph, cfg, cut, record_finals=True)
        resumed = fw.resume()
        np.testing.assert_array_equal(full.finals.src, resumed.finals.src)
        np.testing.assert_array_equal(full.finals.cur, resumed.finals.cur)
        np.testing.assert_array_equal(full.finals.hop, resumed.finals.hop)

    def test_resume_with_spills_after_chip_failure(self, graph):
        """Resume from a checkpoint holding spilled entry walks, taken
        after a chip failure remapped blocks: the restored buffer entries
        and the scheduler's per-chip indexes must replay exactly."""
        victim = int(FlashWalker(graph, seed=9).block_chip[0])
        cfg = FlashWalkerConfig().replace(
            **self.ENGINE,
            pwb_entry_walks=4,
            faults=FaultConfig(
                enabled=True, **self.CFG, chip_failures=((50e-6, victim),)
            ),
        )
        fw = FlashWalker(graph, cfg, seed=9)
        full = fw.run(num_walks=800, spec=WalkSpec(length=5))
        assert full.counters["spilled_walks"] > 0
        crashed = self.crash(graph, cfg, int(fw.sim.events_executed * 0.3))
        ckpt = crashed.latest_checkpoint
        assert ckpt.data["faults"]["chip_failures"] == 1
        entries = ckpt.data["pwb_entries"].values()
        assert sum(state[5] for state in entries) > 0  # spilled walks
        # Right after a restore, the scheduler's per-chip indexes agree
        # with the restored scoreboard and buffer.
        from repro.faults.checkpoint import restore_checkpoint

        probe = FlashWalker(graph, cfg, seed=9)
        restore_checkpoint(probe, ckpt)
        assert probe.pwb.total_walks > 0
        assert probe.scheduler.consistency_errors(probe.pwb) == []
        resumed = crashed.resume()
        assert result_key(resumed) == result_key(full)

    def test_resume_without_checkpoint_raises(self, graph):
        fw = FlashWalker(graph, seed=9)
        with pytest.raises(SimulationError):
            fw.resume()

    def test_checkpointing_off_by_default(self, graph):
        res = FlashWalker(graph, seed=9).run(
            num_walks=300, spec=WalkSpec(length=4)
        )
        assert res.counters["checkpoints_taken"] == 0


class TestSpillPathGolden:
    """Spill-heavy degraded runs must replay their recorded reports.

    None of the benchmark workloads ever spills, so these runs pin the
    partition walk buffer's spill accounting and drain order, and the
    scheduler's per-chip state across a chip failure: tiny entries
    (4 walks) make most inserts overflow, and one chip dies mid-run.
    """

    CASES = {
        # Default SSD (128 chips): chip 3's blocks move to 127 survivors.
        "wide": (
            None, 0.073, 3,
            "3234081fcd548f7603950a2f5b73947d0882e861915200d8f8708f37fd41ec07",
        ),
        # Two chips: entries also collect several batches before a load,
        # so some drains hold buffered and spilled walks at once.
        "two_chips": (
            SSDConfig(channels=1, chips_per_channel=2), 0.09, 1,
            "b12fef71529b8ed30f659a60fd45ff1a2a07b4158d2b00ca92c0f901516b4a1d",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_report_matches_golden(self, case, monkeypatch):
        import hashlib
        import json

        from repro.core.buffers import BlockEntry
        from repro.graph import build_graph

        ssd, t_fail, victim, sha = self.CASES[case]
        mixed_drains = []
        drain = BlockEntry.drain

        def spy(entry):
            mixed_drains.append(entry.buffered_count > 0 and entry.spilled_count > 0)
            return drain(entry)

        monkeypatch.setattr(BlockEntry, "drain", spy)
        graph = build_graph("TT", RngRegistry(0))
        cfg = FlashWalkerConfig().replace(
            partition_subgraphs=4,
            board_hot_subgraphs=1,
            channel_hot_subgraphs=0,
            pwb_entry_walks=4,
            faults=FaultConfig(enabled=True, chip_failures=((t_fail, victim),)),
        )
        if ssd is not None:
            cfg = cfg.replace(ssd=ssd)
        res = FlashWalker(graph, cfg, seed=5).run(
            num_walks=3000, spec=WalkSpec(length=6)
        )
        assert res.counters["spilled_walks"] > 0
        assert res.counters["chips_failed"] == 1
        assert res.counters["degraded_loads"] > 0
        if case == "two_chips":
            assert any(mixed_drains)
        blob = json.dumps(res.to_report(), sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(blob.encode()).hexdigest() == sha


class TestCheckpointFingerprint:
    CFG = TestCheckpointResume.CFG
    ENGINE = TestCheckpointResume.ENGINE

    def crashed(self, graph, cfg):
        helper = TestCheckpointResume()
        _, _, cut = helper.run_full(graph)
        return helper.crash(graph, cfg, cut)

    def make_cfg(self, **overrides):
        return FlashWalkerConfig().replace(
            **self.ENGINE, **overrides, faults=FaultConfig(enabled=True, **self.CFG)
        )

    def test_checkpoint_records_fingerprint(self, graph):
        from repro.obs.report import config_fingerprint

        cfg = self.make_cfg()
        crashed = self.crashed(graph, cfg)
        ckpt = crashed.latest_checkpoint
        assert ckpt.data["config_fingerprint"] == config_fingerprint(cfg)

    def test_restore_rejects_config_mismatch(self, graph):
        cfg = self.make_cfg()
        crashed = self.crashed(graph, cfg)
        other = self.make_cfg(alpha=0.9)
        fresh = FlashWalker(graph, other, seed=9)
        with pytest.raises(ConfigError) as exc_info:
            fresh.resume(checkpoint=crashed.latest_checkpoint)
        # The error names both fingerprints so the operator can see
        # which side is stale.
        msg = str(exc_info.value)
        assert msg.count("sha256:") == 2

    def test_legacy_checkpoint_without_fingerprint_restores(self, graph):
        cfg = self.make_cfg()
        crashed = self.crashed(graph, cfg)
        crashed.latest_checkpoint.data.pop("config_fingerprint")
        fresh = FlashWalker(graph, cfg, seed=9)
        resumed = fresh.resume(checkpoint=crashed.latest_checkpoint)
        assert resumed.total_walks == 800


class TestFailoverCacheInvalidation:
    def test_failed_chip_blocks_dropped_from_query_caches(self, graph):
        cfg = FlashWalkerConfig().replace(faults=FaultConfig(enabled=True))
        fw = FlashWalker(graph, cfg, seed=9)
        victim = int(fw.block_chip[0])
        fw.start_session(expected_walks=100)
        mine = np.flatnonzero(fw.block_chip == victim)
        # Warm the board's walk query caches with the victim's blocks,
        # as served queries would.
        fw.board.caches.probe_batch(mine)
        cached = [
            b for b in mine.tolist()
            if any(b in c for c in fw.board.caches.caches)
        ]
        assert cached, "victim's blocks should be cache-resident before failover"
        fw._fail_chip(victim)
        # After failover the remapped blocks must not serve stale hits:
        # their cached mapping entries point at the dead chip.
        assert not any(
            b in c for b in mine.tolist() for c in fw.board.caches.caches
        )
        # Unrelated blocks keep their entries (no blanket invalidation).
        others = np.setdiff1d(
            np.arange(fw.part.num_blocks, dtype=np.int64), mine
        )[:4]
        if others.size:
            fw.board.caches.probe_batch(others)
            assert any(
                int(b) in c for b in others for c in fw.board.caches.caches
            )

    def test_invalidate_counts_removed_entries(self):
        from repro.core.query_cache import QueryCacheArray

        arr = QueryCacheArray(n_caches=4, entries_per_cache=8)
        arr.probe_batch(np.arange(12))
        assert arr.invalidate_blocks(np.array([0, 5, 11])) == 3
        assert arr.invalidate_blocks(np.array([0, 5])) == 0  # already gone


class TestErrorContext:
    def test_fault_exhausted_carries_location(self):
        exc = FaultExhaustedError(
            "read failed", at=1.5e-3, channel=2, chip=1, die=0, plane=3
        )
        assert str(exc) == "read failed"
        assert exc.at == 1.5e-3
        assert exc.location() == {
            "at": 1.5e-3, "channel": 2, "chip": 1, "die": 0, "plane": 3
        }

    def test_nand_exhaustion_names_chip_and_die(self):
        cfg = FaultConfig(
            enabled=True,
            page_error_rate=1.0,
            retry_success_prob=1e-12,
            remap_on_exhaustion=False,
        ).validate()
        chip = FlashChip(3, SSDConfig())
        chip.fault_model = FaultModel(cfg, np.random.default_rng(0))
        with pytest.raises(FaultExhaustedError) as exc_info:
            chip.read_page(0.0, 1, 0)
        exc = exc_info.value
        assert exc.chip == 3
        assert exc.die == 1
        assert exc.plane == 0
        assert str(exc).startswith("chip 3 die 1 plane 0")

    def test_buffer_overflow_carries_occupancy(self):
        from repro.common import BufferOverflowError

        exc = BufferOverflowError(
            "pwb overflow", block=7, capacity=16, occupancy=21, at=2e-6
        )
        assert str(exc) == "pwb overflow"
        assert (exc.block, exc.capacity, exc.occupancy, exc.at) == (7, 16, 21, 2e-6)
