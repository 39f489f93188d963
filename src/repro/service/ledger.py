"""The query ledger: one place that answers and accounts for queries.

Both serving front-ends — :class:`~repro.service.service.WalkQueryService`
over one engine and :class:`~repro.cluster.cluster.ClusterService` over
a sharded fleet — drive a :class:`QueryLedger`.  It owns each query's
life from arrival to response: the per-query state, admission through
the bounded queue, crediting finished walks (``ok`` only when the last
walk lands by the deadline; walks of an already-answered query count as
zombies), the :class:`~repro.service.request.QueryResult` list, the
arrival/ok/timed-out/shed counters, the shared part of the report's
``service`` section, the query-conservation check both auditors run,
and the checkpoint state of all of the above.

What a front-end does differently — when deadlines fire, how walks are
run and credited, what else a response triggers — stays in the
front-end.  The ledger never asks which front-end is calling: telemetry
names carry the caller's prefix, and a response hook lets the caller
react to each answer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..common.errors import ConfigError
from .request import QueryRequest, QueryResult

__all__ = ["QueryLedger", "QueryState"]


@dataclass
class QueryState:
    """Mutable per-query bookkeeping while a request is live."""

    req: QueryRequest
    t_arrival: float
    deadline_abs: float
    walks_done: int = 0
    admitted: bool = False
    injected: bool = False
    responded: bool = False
    #: Retries left (None when budgets are off).
    retry_budget: int | None = None
    budget_exhausted: bool = False
    #: Pending deadline event, cancelled on response (event-driven
    #: front-ends only).
    deadline_event: object | None = None


class QueryLedger:
    """Per-query state, responses and SLO accounting for one run.

    ``prefix`` names the telemetry series (``{prefix}_arrivals``,
    ``{prefix}_responses``, ...); ``telemetry`` returns the current
    metrics registry or None, looked up per use because an engine
    rebuilds its registry on every session reset.  ``retry_budget`` is
    each query's retry allowance (0 = unlimited).
    ``on_respond(result)`` runs after every response is recorded.
    """

    def __init__(self, prefix: str, telemetry, *, retry_budget: int = 0,
                 on_respond=None):
        self.prefix = prefix
        self.telemetry = telemetry
        self.retry_budget = retry_budget
        self.on_respond = on_respond
        self.states: dict[int, QueryState] = {}
        self.responses: list[QueryResult] = []
        self.arrivals = 0
        #: Responses per status (``ok``, ``timed_out``, ``shed``).
        self.answered = {"ok": 0, "timed_out": 0, "shed": 0}
        self.zombie_walks = 0
        self.retry_budget_exhausted = 0

    # ----------------------------------------------------------- requests

    @staticmethod
    def validated(requests, max_walk_length: int) -> list[QueryRequest]:
        """Check a run's requests; return them in (arrival, id) order."""
        if not requests:
            raise ConfigError("no requests to serve")
        seen: set[int] = set()
        for req in requests:
            req.validate()
            if req.query_id in seen:
                raise ConfigError(f"duplicate query_id {req.query_id}")
            seen.add(req.query_id)
            if req.length > max_walk_length:
                raise ConfigError(
                    f"query {req.query_id}: length {req.length} exceeds "
                    f"max_walk_length {max_walk_length}"
                )
        return sorted(requests, key=lambda r: (r.arrival, r.query_id))

    def open(self, req: QueryRequest, t: float) -> QueryState:
        """Record an arrival at ``t``; the deadline runs from here."""
        self.arrivals += 1
        mx = self.telemetry()
        if mx is not None:
            mx.counter(f"{self.prefix}_arrivals").inc(1.0, t)
        st = QueryState(
            req=req, t_arrival=t, deadline_abs=t + req.deadline,
            retry_budget=self.retry_budget or None,
        )
        self.states[req.query_id] = st
        return st

    def offer(self, st: QueryState, queue, t: float) -> bool:
        """Offer a query to the admission queue, shedding what it refuses
        or evicts; True when ``st`` was admitted."""
        admitted, evicted, refusal = queue.offer(st.req, t)
        if evicted is not None:
            self.respond(self.states[evicted.query_id], "shed", t,
                         shed_reason="shed-oldest")
        if not admitted:
            self.respond(st, "shed", t, shed_reason=refusal)
            return False
        st.admitted = True
        return True

    def next_queued(self, queue) -> QueryState | None:
        """The queue head's state, first dropping heads already answered
        (timed out or shed while queued)."""
        while len(queue):
            st = self.states[queue.peek().query_id]
            if not st.responded:
                return st
            queue.pop()
        return None

    # ---------------------------------------------------------- crediting

    def credit(self, query_id: int, n: int, t: float, *,
               sacrificed: bool = False) -> None:
        """Credit ``n`` walks finished at ``t``; answer ``ok`` once every
        walk is in and the deadline has not passed.  Walks of a query
        already answered are zombies, unless ``sacrificed`` (dropped
        unfinished because nobody would read them)."""
        st = self.states[query_id]
        st.walks_done += n
        if st.responded:
            if not sacrificed:
                self.zombie_walks += n
        elif st.walks_done >= st.req.num_walks and t <= st.deadline_abs:
            self.respond(st, "ok", t)

    def exhaust_budget(self, st: QueryState, t: float) -> None:
        """Count a query whose retry budget ran out (once per query)."""
        if st.budget_exhausted:
            return
        st.budget_exhausted = True
        self.retry_budget_exhausted += 1
        mx = self.telemetry()
        if mx is not None:
            mx.counter(f"{self.prefix}_retry_budget_exhausted").inc(1.0, t)

    # ---------------------------------------------------------- responses

    def respond(self, st: QueryState, status: str, t: float, *,
                shed_reason: str | None = None) -> QueryResult:
        """Answer a query: ``ok``, ``timed_out`` (with the walks done so
        far) or ``shed``."""
        st.responded = True
        if st.deadline_event is not None:
            st.deadline_event.cancel()
            st.deadline_event = None
        result = QueryResult(
            query_id=st.req.query_id,
            arrival=st.req.arrival,
            admitted=st.admitted,
            status=status,
            walks_requested=st.req.num_walks,
            walks_completed=st.walks_done,
            finish_time=t,
            latency=0.0 if status == "shed" else t - st.t_arrival,
            shed_reason=shed_reason,
        )
        self.responses.append(result)
        self.answered[status] += 1
        mx = self.telemetry()
        if mx is not None:
            p = self.prefix
            mx.counter(f"{p}_responses").inc(1.0, t)
            mx.counter(f"{p}_status", status=status).inc(1.0, t)
            if status == "timed_out":
                mx.counter(f"{p}_deadline_misses").inc(1.0, t)
            elif status == "shed":
                mx.counter(f"{p}_shed").inc(1.0, t)
        if self.on_respond is not None:
            self.on_respond(result)
        return result

    def pending(self) -> list[int]:
        """Ids of queries that arrived but are not answered yet."""
        return sorted(
            qid for qid, st in self.states.items() if not st.responded
        )

    # ------------------------------------------------------------- report

    def section(self, walks: dict) -> dict:
        """The report ``service`` section's shared keys; ``walks`` is the
        front-end's walk accounting (the ledger adds ``zombie``)."""
        ok_lat = np.asarray(
            [r.latency for r in self.responses if r.status == "ok"],
            dtype=float,
        )
        lat = {"n": 0, "mean": 0.0, "max": 0.0, "p50": 0.0, "p95": 0.0,
               "p99": 0.0}
        if ok_lat.size:
            lat = {
                "n": int(ok_lat.size),
                "mean": float(ok_lat.mean()),
                "max": float(ok_lat.max()),
                "p50": float(np.percentile(ok_lat, 50.0)),
                "p95": float(np.percentile(ok_lat, 95.0)),
                "p99": float(np.percentile(ok_lat, 99.0)),
            }
        arrivals = max(self.arrivals, 1)
        return {
            "requests": {"arrivals": self.arrivals, **self.answered},
            "walks": {**walks, "zombie": self.zombie_walks},
            "latency": lat,
            "shed_rate": self.answered["shed"] / arrivals,
            "deadline_miss_rate": self.answered["timed_out"] / arrivals,
        }

    # -------------------------------------------------------------- audit

    def conservation_errors(self, walks_finished: int, *,
                            final: bool = False) -> list[str]:
        """Violations of walk attribution and query conservation:
        credited walks must equal ``walks_finished``, and every arrival
        is answered or pending (answered, at the final audit)."""
        errors: list[str] = []
        credited = sum(st.walks_done for st in self.states.values())
        if credited != walks_finished:
            errors.append(
                f"walks credited to queries ({credited}) != walks finished "
                f"({walks_finished})"
            )
        responded = sum(self.answered.values())
        pending = len(self.pending())
        if responded + pending != self.arrivals:
            errors.append(
                f"query conservation: responded {responded} + pending "
                f"{pending} != arrivals {self.arrivals}"
            )
        if final and pending:
            errors.append(f"final audit: {pending} queries unanswered")
        return errors

    def dump(self) -> dict:
        """Query accounting for an auditor's post-mortem state dump."""
        return {
            "arrivals": self.arrivals,
            **self.answered,
            "pending_queries": self.pending(),
        }

    # --------------------------------------------------------- checkpoint

    _COUNTERS = ("arrivals", "zombie_walks", "retry_budget_exhausted")

    def state(self) -> dict:
        """Checkpoint copy: later events on the live timeline cannot reach
        into it.  Requests and results are immutable, so they are shared;
        deadline events belong to the timeline and are not kept."""
        return {
            "queries": [
                replace(st, deadline_event=None) for st in self.states.values()
            ],
            "responses": list(self.responses),
            "answered": dict(self.answered),
            "counters": {k: getattr(self, k) for k in self._COUNTERS},
        }

    def load_state(self, d: dict) -> None:
        """Inverse of :meth:`state` (the checkpoint stays reusable)."""
        self.states = {st.req.query_id: replace(st) for st in d["queries"]}
        self.responses = list(d["responses"])
        self.answered = dict(d["answered"])
        for k, v in d["counters"].items():
            setattr(self, k, v)
