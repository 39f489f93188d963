"""Service layer: admission policies, deadlines with partial results,
circuit breaker, online invariant auditor, and SLO reporting."""

import numpy as np
import pytest

from repro.common import (
    ConfigError,
    FaultConfig,
    FlashWalkerConfig,
    RngRegistry,
)
from repro.common.errors import InvariantViolation
from repro.core import FlashWalker
from repro.graph import rmat
from repro.obs.report import diff_reports
from repro.service import (
    AdmissionQueue,
    CircuitBreaker,
    QueryRequest,
    ServiceConfig,
    WalkQueryService,
    open_loop_requests,
)

#: Force walks through the chip path so completions take real simulated
#: time (a fully board-hot graph would finish queries synchronously at
#: injection, defeating deadline/backpressure tests).
ENGINE = dict(
    partition_subgraphs=4, board_hot_subgraphs=1, channel_hot_subgraphs=0
)


@pytest.fixture(scope="module")
def graph():
    return rmat(10, 8, RngRegistry(55).fresh("g"))


def make_service(graph, *, faults=None, seed=9, engine=None, **svc_kw):
    cfg = FlashWalkerConfig().replace(**(engine or {}))
    if faults is not None:
        cfg = cfg.replace(faults=faults)
    fw = FlashWalker(graph, cfg, seed=seed)
    return WalkQueryService(fw, ServiceConfig(**svc_kw))


def burst_requests(n, *, num_walks=32, deadline=50e-3, gap=0.0):
    return [
        QueryRequest(
            query_id=i,
            arrival=i * gap,
            num_walks=num_walks,
            length=6,
            deadline=deadline,
        )
        for i in range(n)
    ]


class TestServiceConfig:
    def test_defaults_validate(self):
        ServiceConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(queue_capacity=0),
            dict(admission_policy="lifo"),
            dict(admission_policy="token-bucket", rate_limit_qps=0.0),
            dict(rate_limit_burst=0),
            dict(max_inflight_walks=0),
            dict(max_walk_length=0),
            dict(default_deadline=0.0),
            dict(breaker_policy="explode"),
            dict(breaker_cooldown=0.0),
            dict(breaker_exhausted_threshold=0),
            dict(audit_interval_events=-1),
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            ServiceConfig(**kwargs).validate()


class TestRequests:
    def test_open_loop_deterministic(self):
        a = open_loop_requests(10, 1e4, RngRegistry(7).fresh("arr"))
        b = open_loop_requests(10, 1e4, RngRegistry(7).fresh("arr"))
        assert [r.arrival for r in a] == [r.arrival for r in b]
        assert all(r.arrival > 0 for r in a)
        assert sorted(r.arrival for r in a) == [r.arrival for r in a]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(query_id=-1),
            dict(arrival=-1.0),
            dict(num_walks=0),
            dict(length=0),
            dict(deadline=0.0),
            dict(starts=np.arange(3)),
        ],
    )
    def test_validation_rejects(self, kwargs):
        base = dict(query_id=0, arrival=0.0, num_walks=8, length=6, deadline=1e-3)
        base.update(kwargs)
        with pytest.raises(ConfigError):
            QueryRequest(**base).validate()


class TestAdmissionQueue:
    def offer_n(self, q, n, now=0.0):
        reqs = burst_requests(n)
        return [q.offer(r, now) for r in reqs]

    def test_reject_when_full(self):
        q = AdmissionQueue(capacity=2, policy="reject")
        results = self.offer_n(q, 4)
        assert [r[0] for r in results] == [True, True, False, False]
        assert [r[2] for r in results[2:]] == ["queue-full", "queue-full"]
        assert q.rejected == 2 and q.admitted == 2 and len(q) == 2

    def test_shed_oldest_evicts_stalest(self):
        q = AdmissionQueue(capacity=2, policy="shed-oldest")
        results = self.offer_n(q, 3)
        assert all(r[0] for r in results)
        # The newcomer displaced query 0 (the stalest entry).
        assert results[2][1].query_id == 0
        assert [r.query_id for r in (q.pop(), q.pop())] == [1, 2]
        assert q.shed_oldest == 1

    def test_token_bucket_rate_limits(self):
        q = AdmissionQueue(capacity=8, policy="token-bucket", rate=1e3, burst=1)
        reqs = burst_requests(3)
        first = q.offer(reqs[0], 0.0)
        second = q.offer(reqs[1], 1e-6)  # bucket refilled by only 1e-3 tokens
        third = q.offer(reqs[2], 2e-3)  # two full refill periods later
        assert first[0] and not second[0] and third[0]
        assert second[2] == "rate-limited"
        assert q.rate_limited == 1

    def test_peak_depth_tracked(self):
        q = AdmissionQueue(capacity=4, policy="reject")
        self.offer_n(q, 3)
        q.pop()
        assert q.peak_depth == 3


class _FakeFaults:
    chip_failures = 0
    reads_exhausted = 0


class _FakeEngine:
    def __init__(self):
        self.fault_model = _FakeFaults()


class TestCircuitBreaker:
    def test_trips_on_chip_failure(self):
        eng = _FakeEngine()
        br = CircuitBreaker(ServiceConfig(breaker_cooldown=1e-3), eng)
        assert not br.is_open(0.0)
        eng.fault_model.chip_failures = 1
        assert br.is_open(1e-4)
        assert br.trips == 1
        # Same failure does not re-trip; cooldown elapses.
        assert not br.is_open(1e-4 + 2e-3)
        assert br.trips == 1

    def test_trips_on_exhausted_reads(self):
        eng = _FakeEngine()
        br = CircuitBreaker(
            ServiceConfig(breaker_cooldown=1e-3, breaker_exhausted_threshold=2),
            eng,
        )
        eng.fault_model.reads_exhausted = 1
        assert not br.is_open(0.0)
        eng.fault_model.reads_exhausted = 3
        assert br.is_open(0.0)

    def test_disabled_never_opens(self):
        eng = _FakeEngine()
        br = CircuitBreaker(ServiceConfig(breaker_enabled=False), eng)
        eng.fault_model.chip_failures = 5
        assert not br.is_open(0.0)


class TestServiceHappyPath:
    def test_all_queries_served(self, graph):
        svc = make_service(graph, engine=ENGINE)
        reqs = burst_requests(6, gap=30e-6)
        out = svc.run(reqs)
        assert len(out.responses) == 6
        assert all(r.status == "ok" for r in out.responses)
        assert all(r.walks_completed == r.walks_requested for r in out.responses)
        assert all(r.latency > 0 for r in out.responses)
        s = out.result.service
        assert s["requests"]["arrivals"] == 6
        assert s["requests"]["ok"] == 6
        assert s["shed_rate"] == 0.0
        assert s["latency"]["p50"] <= s["latency"]["p99"]
        assert s["audit"]["audits"] >= 1
        assert s["audit"]["violations"] == 0
        # Engine accounting matches the service's.
        assert out.result.total_walks == 6 * 32
        assert out.result.counters["svc_queries_ok"] == 6.0

    def test_report_carries_service_section(self, graph):
        svc = make_service(graph, engine=ENGINE)
        out = svc.run(burst_requests(3, gap=30e-6))
        report = out.result.to_report()
        assert report["schema_version"] == 5
        assert report["service"]["requests"]["ok"] == 3
        assert "p99" in report["service"]["latency"]

    def test_explicit_starts_honored(self, graph):
        svc = make_service(graph, engine=ENGINE)
        starts = np.zeros(8, dtype=np.int64)
        req = QueryRequest(
            query_id=0, arrival=0.0, num_walks=8, length=6,
            deadline=50e-3, starts=starts,
        )
        out = svc.run([req])
        assert out.responses[0].status == "ok"

    def test_duplicate_query_ids_rejected(self, graph):
        svc = make_service(graph)
        reqs = burst_requests(2)
        dup = QueryRequest(
            query_id=0, arrival=1e-6, num_walks=8, length=6, deadline=1e-3
        )
        with pytest.raises(ConfigError):
            svc.run(reqs + [dup])

    def test_overlong_walks_rejected(self, graph):
        svc = make_service(graph, max_walk_length=4)
        req = QueryRequest(
            query_id=0, arrival=0.0, num_walks=8, length=6, deadline=1e-3
        )
        with pytest.raises(ConfigError):
            svc.run([req])


class TestDeadlines:
    def test_timed_out_query_returns_partial_results(self, graph):
        svc = make_service(graph, engine=ENGINE)
        tight = QueryRequest(
            query_id=0, arrival=0.0, num_walks=64, length=6, deadline=2e-6
        )
        generous = [
            QueryRequest(
                query_id=i, arrival=5e-6 * i, num_walks=32, length=6,
                deadline=50e-3,
            )
            for i in range(1, 5)
        ]
        out = svc.run([tight] + generous)
        by_id = out.by_id()
        assert by_id[0].status == "timed_out"
        assert by_id[0].walks_completed < 64
        assert by_id[0].latency == pytest.approx(2e-6)
        # Other in-flight queries are unaffected by the timeout.
        for i in range(1, 5):
            assert by_id[i].status == "ok"
            assert by_id[i].walks_completed == 32
        # The timed-out query's walks still ran to completion in the
        # background (the engine's conservation assert would fail
        # otherwise) and are reported as zombies.
        assert out.result.total_walks == 64 + 4 * 32
        assert out.result.service["walks"]["zombie"] > 0
        assert out.result.service["requests"]["deadline_misses"] == 1

    def test_deadline_miss_rate_reported(self, graph):
        svc = make_service(graph, engine=ENGINE)
        reqs = burst_requests(4, num_walks=64, deadline=2e-6)
        out = svc.run(reqs)
        s = out.result.service
        assert s["requests"]["timed_out"] == 4
        assert s["deadline_miss_rate"] == 1.0


class TestAdmissionPolicies:
    def test_reject_sheds_burst_overflow(self, graph):
        svc = make_service(
            graph, engine=ENGINE, queue_capacity=2, max_inflight_walks=32
        )
        out = svc.run(burst_requests(6, num_walks=32))
        statuses = [r.status for r in out.responses]
        assert statuses.count("shed") == 4
        shed = [r for r in out.responses if r.status == "shed"]
        assert all(r.shed_reason == "queue-full" for r in shed)
        assert all(not r.admitted for r in shed)
        # Queued queries drain once backpressure lifts.
        assert out.result.service["requests"]["ok"] == 2

    def test_shed_oldest_prefers_newcomers(self, graph):
        svc = make_service(
            graph,
            engine=ENGINE,
            queue_capacity=2,
            max_inflight_walks=32,
            admission_policy="shed-oldest",
        )
        out = svc.run(burst_requests(6, num_walks=32))
        by_id = out.by_id()
        # The two newest requests survive the shedding cascade.
        assert by_id[4].status == "ok" and by_id[5].status == "ok"
        shed = [r for r in out.responses if r.status == "shed"]
        assert len(shed) == 4
        assert all(r.shed_reason == "shed-oldest" for r in shed)
        assert all(r.admitted for r in shed)

    def test_token_bucket_rate_limits_arrivals(self, graph):
        svc = make_service(
            graph,
            engine=ENGINE,
            admission_policy="token-bucket",
            rate_limit_qps=1e3,
            rate_limit_burst=1,
        )
        reqs = [
            QueryRequest(
                query_id=i, arrival=i * 1e-6, num_walks=16, length=6,
                deadline=50e-3,
            )
            for i in range(3)
        ]
        out = svc.run(reqs)
        by_id = out.by_id()
        assert by_id[0].status == "ok"
        assert by_id[1].status == "shed"
        assert by_id[1].shed_reason == "rate-limited"
        assert out.result.service["queue"]["rate_limited"] == 2


def chaos_service(graph, seed=9, **svc_kw):
    probe = FlashWalker(graph, FlashWalkerConfig().replace(**ENGINE), seed=seed)
    victim = int(probe.block_chip[0])
    faults = FaultConfig(
        enabled=True,
        page_error_rate=0.05,
        crc_error_rate=0.02,
        chip_failures=((150e-6, victim),),
    )
    svc_kw.setdefault("breaker_cooldown", 100e-6)
    return make_service(graph, faults=faults, seed=seed, engine=ENGINE, **svc_kw)


def chaos_requests():
    return open_loop_requests(
        16,
        4e4,
        RngRegistry(7).fresh("arr"),
        walks_per_query=32,
        deadline=50e-3,
    )


class TestChaos:
    def test_breaker_sheds_after_chip_failure(self, graph):
        out = chaos_service(graph).run(chaos_requests())
        s = out.result.service
        assert out.result.counters["fault_chip_failures"] == 1.0
        assert s["breaker"]["trips"] >= 1
        shed = [r for r in out.responses if r.shed_reason == "breaker-open"]
        assert len(shed) >= 1
        # Queries admitted before the failure still complete.
        assert s["requests"]["ok"] >= 1
        assert s["audit"]["violations"] == 0

    def test_breaker_defer_holds_and_recovers(self, graph):
        out = chaos_service(graph, breaker_policy="defer").run(chaos_requests())
        s = out.result.service
        assert s["breaker"]["trips"] >= 1
        assert s["breaker"]["deferrals"] >= 1
        # Deferral delays but never drops: every arrival is answered,
        # none shed by the breaker.
        assert s["requests"]["shed"] == 0
        assert s["requests"]["ok"] + s["requests"]["timed_out"] == 16

    def test_chaos_run_deterministic(self, graph):
        a = chaos_service(graph).run(chaos_requests())
        b = chaos_service(graph).run(chaos_requests())
        key = lambda o: [
            (r.query_id, r.status, r.walks_completed, r.latency, r.shed_reason)
            for r in o.responses
        ]
        assert key(a) == key(b)
        assert a.result.service == b.result.service
        assert diff_reports(a.result.to_report(), b.result.to_report()) == {}


class TestAuditor:
    def test_auditor_catches_injected_accounting_bug(self, graph):
        svc = make_service(graph, engine=ENGINE, audit_interval_events=8)

        def corrupt(fw, t0):
            # Mutation-style liveness check: silently "complete" walks
            # that never existed; conservation must flag it.
            fw.sim.at(t0 + 40e-6, lambda: setattr(
                fw, "completed_walks", fw.completed_walks + 3
            ))

        svc.on_session_start = corrupt
        with pytest.raises(InvariantViolation) as exc_info:
            svc.run(burst_requests(6, gap=30e-6))
        exc = exc_info.value
        assert exc.violations
        assert any("conservation" in v for v in exc.violations)
        # The state dump carries the accounting snapshot at failure time.
        assert exc.state["total_walks"] >= 32
        assert exc.state["completed_walks"] >= 3
        assert exc.at > 0

    def test_auditor_catches_transit_corruption(self, graph):
        svc = make_service(graph, engine=ENGINE, audit_interval_events=8)

        def corrupt(fw, t0):
            # in_transit has no engine-side guard of its own; only the
            # auditor's conservation check can see this.
            fw.sim.at(t0 + 40e-6, lambda: setattr(
                fw, "in_transit", fw.in_transit + 4
            ))

        svc.on_session_start = corrupt
        with pytest.raises(InvariantViolation) as exc_info:
            svc.run(burst_requests(6, gap=30e-6))
        assert any("conservation" in v for v in exc_info.value.violations)

    def test_audit_flags_scoreboard_divergence(self, graph):
        svc = make_service(graph, engine=ENGINE)
        fw = svc.fw
        fw.start_session(expected_walks=64)
        fw.scheduler.pwb[0] += 5
        fw.scheduler._touch()
        with pytest.raises(InvariantViolation) as exc_info:
            svc.auditor.audit(final=True)
        assert any("scheduler" in v for v in exc_info.value.violations)

    def test_audit_flags_chip_pending_divergence(self, graph):
        svc = make_service(graph, engine=ENGINE)
        fw = svc.fw
        fw.start_session(expected_walks=64)
        # Per-block scoreboard and buffer still agree; only the
        # scheduler's per-chip pending count is off.
        fw.scheduler._chip_pending[0] += 3
        with pytest.raises(InvariantViolation) as exc_info:
            svc.auditor.audit(final=True)
        assert any("chip 0: scheduler pending" in v for v in exc_info.value.violations)

    def test_audit_flags_chip_block_index_divergence(self, graph):
        svc = make_service(graph, engine=ENGINE)
        fw = svc.fw
        fw.start_session(expected_walks=64)
        sc = fw.scheduler
        sc._chip_blocks[0] = sc._chip_blocks[0][1:]
        with pytest.raises(InvariantViolation) as exc_info:
            svc.auditor.audit(final=True)
        assert any("per-chip block lists" in v for v in exc_info.value.violations)

    def test_audit_disabled_still_runs_final_audit(self, graph):
        svc = make_service(graph, engine=ENGINE, audit_interval_events=0)
        out = svc.run(burst_requests(3, gap=30e-6))
        assert out.result.service["audit"]["audits"] == 1


class TestDefaultPathUnchanged:
    def test_batch_run_emits_no_service_section(self, graph):
        fw = FlashWalker(graph, FlashWalkerConfig().replace(**ENGINE), seed=9)
        res = fw.run(num_walks=300)
        assert res.service is None
        report = res.to_report()
        assert "service" not in report

    def test_batch_runs_byte_identical(self, graph):
        cfg = FlashWalkerConfig().replace(**ENGINE)
        r1 = FlashWalker(graph, cfg, seed=9).run(num_walks=300).to_report()
        r2 = FlashWalker(graph, cfg, seed=9).run(num_walks=300).to_report()
        assert diff_reports(r1, r2) == {}

    def test_service_run_leaves_no_residue_in_batch_runs(self, graph):
        cfg = FlashWalkerConfig().replace(**ENGINE)
        fw = FlashWalker(graph, cfg, seed=9)
        WalkQueryService(fw, ServiceConfig()).run(burst_requests(2, gap=30e-6))
        again = fw.run(num_walks=300)
        # A completed service session leaves no service residue in later
        # batch runs: the completion hook is re-disarmed, svc_* counters
        # do not leak into the report, and no service section appears.
        assert fw._on_completed is None
        report = again.to_report()
        assert "svc_queries_ok" not in report["counters"]
        assert "service" not in report
