"""Accounting sink and steady-state metrics for the service loop.

Every event the :class:`~repro.service.loop.Service` emits lands here:
offered/shed/completed work items, pipeline completions, and periodic
backlog samples.  :meth:`Accounting.snapshot` reduces the raw records to
the dashboard numbers — p50/p99 queue wait and turnaround, utilization,
backlog depth, shed rate, per-tenant breakdowns — as a schema-versioned
document (``repro.service.snapshot/v1``) that
:func:`validate_snapshot` checks structurally, the same contract the
benchmark harness uses for ``BENCH_wavelet.json``.

Percentiles use the deterministic nearest-rank method (no interpolation)
so pinned-seed tests can assert exact values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.schema import Bound, Items, Record, check

__all__ = [
    "SNAPSHOT_SCHEMA",
    "ItemRecord",
    "Accounting",
    "percentile",
    "validate_snapshot",
]

SNAPSHOT_SCHEMA = "repro.service.snapshot/v1"

_COUNT = Bound(int, ge=0)
_DIST = Record(dict(count=_COUNT, p50=float, p99=float, mean=float, max=float), exact=True)
_LATENCY_KEYS = ("queue_wait", "turnaround", "pipeline_makespan")

_JOBS = dict.fromkeys(("offered", "admitted", "completed", "shed", "submissions"), _COUNT)
SNAPSHOT_DOC = Record(
    dict(
        schema=(SNAPSHOT_SCHEMA,), config=dict,
        jobs=Record(dict(_JOBS, shed_rate=Bound(float, ge=0.0, le=1.0))),
        latency=Record(dict.fromkeys(_LATENCY_KEYS, _DIST)),
        backlog=Record(dict(peak=_COUNT, end=_COUNT)),
        utilization=Bound(float, ge=0.0, le=1.0 + 1e-9),
        per_tenant=Items(Record(dict(turnaround=_DIST))),
    )
)


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    if not values:
        raise ConfigurationError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) / 100.0)
    rank = max(1, min(len(ordered), rank))
    return float(ordered[rank - 1])


def _dist(values: list) -> dict:
    """p50/p99/mean/max summary of a latency sample (0s when empty)."""
    if not values:
        return {"count": 0, "p50": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
    return {
        "count": len(values),
        "p50": percentile(values, 50.0),
        "p99": percentile(values, 99.0),
        "mean": float(sum(values)) / len(values),
        "max": float(max(values)),
    }


@dataclass(frozen=True)
class ItemRecord:
    """One completed logical work item (a single image/job in a batch)."""

    tenant: str
    template: str
    arrival_s: float
    start_s: float
    finish_s: float
    batch_size: int = 1

    @property
    def queue_wait_s(self) -> float:
        """Arrival to partition allocation (includes batching delay)."""
        return self.start_s - self.arrival_s

    @property
    def turnaround_s(self) -> float:
        return self.finish_s - self.arrival_s


@dataclass
class Accounting:
    """Append-only sink the service loop reports into."""

    offered: int = 0
    sheds: list = field(default_factory=list)
    items: list = field(default_factory=list)
    pipelines: list = field(default_factory=list)  # (arrival_s, finish_s, tenant)
    backlog_samples: list = field(default_factory=list)  # (t_s, depth)
    busy_node_s: float = 0.0
    submissions: int = 0

    # -- event hooks ---------------------------------------------------------

    def record_offered(self, n: int = 1) -> None:
        self.offered += n

    def record_shed(self, rejection) -> None:
        self.sheds.append(rejection)

    def record_submission(self) -> None:
        self.submissions += 1

    def record_items(self, records: list) -> None:
        self.items.extend(records)

    def record_pipeline(self, arrival_s: float, finish_s: float, tenant: str) -> None:
        self.pipelines.append((arrival_s, finish_s, tenant))

    def record_backlog(self, t_s: float, depth: int) -> None:
        self.backlog_samples.append((t_s, depth))

    def record_service(self, partition_size: int, service_s: float) -> None:
        self.busy_node_s += partition_size * service_s

    # -- reductions ----------------------------------------------------------

    @property
    def shed_count(self) -> int:
        return len(self.sheds)

    @property
    def shed_rate(self) -> float:
        """Fraction of offered work items turned away at the door."""
        return self.shed_count / self.offered if self.offered else 0.0

    def utilization(self, usable_nodes: int, elapsed_s: float) -> float:
        """Busy node-seconds over the machine's node-seconds."""
        if usable_nodes <= 0 or elapsed_s <= 0.0:
            return 0.0
        return self.busy_node_s / (usable_nodes * elapsed_s)

    def snapshot(
        self, *, config: dict, usable_nodes: int, elapsed_s: float,
        backlog_end: int,
    ) -> dict:
        """The schema-versioned steady-state metrics document (checked by
        :func:`validate_snapshot` where it leaves the program, not here)."""
        queue_waits = [item.queue_wait_s for item in self.items]
        turnarounds = [item.turnaround_s for item in self.items]
        depths = [depth for _, depth in self.backlog_samples]

        tenants = sorted(
            {item.tenant for item in self.items}
            | {shed.tenant for shed in self.sheds}
        )
        per_tenant = []
        for tenant in tenants:
            mine = [item for item in self.items if item.tenant == tenant]
            shed = sum(1 for s in self.sheds if s.tenant == tenant)
            per_tenant.append(
                {
                    "tenant": tenant,
                    "completed": len(mine),
                    "shed": shed,
                    "queue_wait": _dist([i.queue_wait_s for i in mine]),
                    "turnaround": _dist([i.turnaround_s for i in mine]),
                }
            )

        shed_reasons: dict = {}
        for rejection in self.sheds:
            shed_reasons[rejection.reason] = shed_reasons.get(rejection.reason, 0) + 1

        doc = {
            "schema": SNAPSHOT_SCHEMA,
            "config": dict(config),
            "jobs": {
                "offered": self.offered,
                "admitted": self.offered - self.shed_count,
                "completed": len(self.items),
                "submissions": self.submissions,
                "shed": self.shed_count,
                "shed_rate": self.shed_rate,
                "shed_reasons": dict(sorted(shed_reasons.items())),
                "pipelines_completed": len(self.pipelines),
            },
            "latency": {
                "queue_wait": _dist(queue_waits),
                "turnaround": _dist(turnarounds),
                "pipeline_makespan": _dist(
                    [finish - arrival for arrival, finish, _ in self.pipelines]
                ),
            },
            "backlog": {
                "samples": len(depths),
                "peak": int(max(depths)) if depths else 0,
                "mean": float(sum(depths)) / len(depths) if depths else 0.0,
                "end": int(backlog_end),
            },
            "utilization": self.utilization(usable_nodes, elapsed_s),
            "elapsed_s": float(elapsed_s),
            "per_tenant": per_tenant,
        }
        return doc


def validate_snapshot(doc) -> None:
    """Structural + consistency check of a service snapshot document.

    Raises :class:`~repro.errors.ConfigurationError` on any violation.
    """
    check(doc, SNAPSHOT_DOC, "service snapshot")
    jobs = doc["jobs"]
    if jobs["admitted"] + jobs["shed"] != jobs["offered"]:
        raise ConfigurationError("jobs: admitted + shed != offered")
    dists = [(f"latency.{key}", doc["latency"][key]) for key in _LATENCY_KEYS] + [
        (f"per_tenant[{entry.get('tenant')}].turnaround", entry["turnaround"])
        for entry in doc["per_tenant"]
    ]
    for where, dist in dists:
        if not dist["p50"] <= dist["p99"] + 1e-12 or not dist["p99"] <= dist["max"] + 1e-12:
            raise ConfigurationError(f"{where}: percentiles break p50 <= p99 <= max")
