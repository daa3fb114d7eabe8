"""Closed-loop load autopilot: sweep offered load, find the knee.

The open-loop service answers "what happens at this load"; the autopilot
answers "how much load can this machine take".  It estimates the
machine's work capacity from the mix's measured service times, sweeps a
grid of offered-load multipliers (``rho = offered work / capacity``),
runs one seeded service simulation per point with common random numbers
(same seeds at every point, so curves differ only through load), and
detects the *saturation knee* on the turnaround curve:

* **Curvature** (primary): the point of maximum distance above the
  chord joining the first and last sweep points of the normalized mean
  turnaround curve — the "kneedle" construction, which finds the
  inflection where queueing delay starts compounding.
* **Backlog divergence** (guard): the first point whose horizon-end
  backlog exceeds ``diverged_backlog`` or whose shed rate exceeds
  ``diverged_shed`` is flagged unstable; a curvature knee past the first
  unstable point is clamped to it.

The report is schema-versioned (``repro.service.loadsweep/v1``) and
checked by :func:`validate_loadsweep`.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.schema import Bound, Items, Record, check
from repro.service.accounting import Accounting
from repro.service.admission import AdmissionController
from repro.service.arrivals import parse_arrival_spec
from repro.service.loop import Service, ServiceConfig
from repro.service.workloads import Mix

__all__ = [
    "LOADSWEEP_SCHEMA",
    "DEFAULT_MULTIPLIERS",
    "estimate_capacity_rate",
    "run_load_sweep",
    "detect_knee",
    "validate_loadsweep",
]

LOADSWEEP_SCHEMA = "repro.service.loadsweep/v1"

_LOAD = Bound(float, gt=0.0, why="non-positive load")
_POINT = Record(
    dict(
        offered_load=_LOAD, rate_s=_LOAD, offered=int, completed=int,
        shed_rate=Bound(float, ge=0.0, le=1.0), p50_turnaround_s=float,
        p99_turnaround_s=float, mean_turnaround_s=float,
        utilization=Bound(float, ge=0.0, le=1.0 + 1e-9), backlog_end=int,
        backlog_peak=int, unstable=bool,
    ),
    exact=True,
)
LOADSWEEP_DOC = Record(
    dict(
        schema=(LOADSWEEP_SCHEMA,), config=dict, points=Items(_POINT, min=2),
        knee=Record(dict(detected=bool, index=int, offered_load=float, method=str)),
    )
)

#: Default offered-load grid (fractions of estimated capacity).
DEFAULT_MULTIPLIERS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)


def mean_work_per_arrival(mix: Mix, oracle) -> float:
    """Expected node-seconds of service demanded by one arrival.

    Weighted over the tenant shares and each tenant's work blend; a
    pipeline arrival costs the sum of its stage jobs.
    """
    total_weight = sum(tenant.weight for tenant in mix.tenants)
    expected = 0.0
    for tenant in mix.tenants:
        blend_weight = sum(weight for _, weight in tenant.work)
        for work_name, weight in tenant.work:
            if mix.is_pipeline(work_name):
                cost = 0.0
                for stage in mix.pipelines[work_name].stages:
                    for template_name in stage:
                        template = mix.templates[template_name]
                        cost += template.partition_size * oracle.service_s(template)
            else:
                template = mix.templates[work_name]
                cost = template.partition_size * oracle.service_s(template)
            expected += (tenant.weight / total_weight) * (weight / blend_weight) * cost
    if expected <= 0.0:
        raise ConfigurationError("mix has zero expected work per arrival")
    return expected


def estimate_capacity_rate(mix: Mix, oracle, usable_nodes: int) -> float:
    """Arrival rate (per virtual second) that offers exactly the
    machine's node-seconds: ``usable_nodes / E[work per arrival]``.

    Real capacity is lower (partition rounding, fair-share fragmentation,
    pipeline serialization), which is precisely what the sweep measures.
    """
    return usable_nodes / mean_work_per_arrival(mix, oracle)


def detect_knee(
    multipliers: list,
    turnarounds: list,
    unstable: list,
) -> dict:
    """Knee of the (load, turnaround) curve.

    Returns ``{"detected", "index", "offered_load", "method"}``; the
    kneedle chord construction needs at least three points and a
    non-flat curve, otherwise the first unstable point (backlog
    divergence) is the fallback, and failing both the knee is reported
    undetected at the last point.
    """
    n = len(multipliers)
    if n != len(turnarounds) or n != len(unstable):
        raise ConfigurationError("knee inputs must be parallel lists")
    first_unstable = next((i for i, bad in enumerate(unstable) if bad), None)
    if n >= 3:
        x0, x1 = multipliers[0], multipliers[-1]
        y0, y1 = turnarounds[0], turnarounds[-1]
        span_x = x1 - x0
        span_y = y1 - y0
        if span_x > 0.0 and span_y > 1e-12:
            best_index, best_distance = None, 0.0
            for i in range(1, n - 1):
                xn = (multipliers[i] - x0) / span_x
                yn = (turnarounds[i] - y0) / span_y
                distance = xn - yn  # height above the normalized chord
                if distance > best_distance:
                    best_index, best_distance = i, distance
            if best_index is not None and best_distance > 0.01:
                index = best_index
                method = "kneedle-chord"
                if first_unstable is not None and first_unstable < index:
                    index = first_unstable
                    method = "backlog-divergence"
                return {
                    "detected": True,
                    "index": index,
                    "offered_load": multipliers[index],
                    "method": method,
                }
    if first_unstable is not None:
        return {
            "detected": True,
            "index": first_unstable,
            "offered_load": multipliers[first_unstable],
            "method": "backlog-divergence",
        }
    return {
        "detected": False,
        "index": n - 1,
        "offered_load": multipliers[-1],
        "method": "none",
    }


def run_load_sweep(
    usable_nodes: int,
    mix: Mix,
    oracle,
    *,
    multipliers=DEFAULT_MULTIPLIERS,
    arrival_kind: str = "poisson",
    seed: int = 0,
    horizon_s: float = 60.0,
    policy_name: str = "fair",
    admission: AdmissionController | None = None,
    config: ServiceConfig | None = None,
    diverged_backlog: int = 8,
    diverged_shed: float = 0.05,
) -> dict:
    """Sweep offered load and emit the ``repro.service.loadsweep/v1`` report."""
    from repro.runtime.policy import make_policy

    multipliers = [float(m) for m in multipliers]
    if len(multipliers) < 2:
        raise ConfigurationError("load sweep needs at least 2 points")
    if sorted(multipliers) != multipliers:
        raise ConfigurationError("sweep multipliers must be ascending")
    base_rate = estimate_capacity_rate(mix, oracle, usable_nodes)
    loop_config = config if config is not None else ServiceConfig(horizon_s=horizon_s)

    points = []
    for i, multiplier in enumerate(multipliers):
        rate = multiplier * base_rate
        # Common random numbers: every point replays the same arrival and
        # mix seeds, so the curves differ only through the offered rate.
        arrivals = parse_arrival_spec(arrival_kind, seed, rate_s=rate)
        service = Service(
            usable_nodes,
            mix,
            arrivals,
            oracle,
            policy=make_policy(policy_name, weights=mix.tenant_weights()),
            admission=admission,
            accounting=Accounting(),
            config=loop_config,
            seed=seed,
        )
        report = service.run()
        snapshot = report.snapshot
        points.append(
            {
                "offered_load": multiplier,
                "rate_s": rate,
                "offered": snapshot["jobs"]["offered"],
                "completed": snapshot["jobs"]["completed"],
                "shed_rate": snapshot["jobs"]["shed_rate"],
                "p50_turnaround_s": snapshot["latency"]["turnaround"]["p50"],
                "p99_turnaround_s": snapshot["latency"]["turnaround"]["p99"],
                "mean_turnaround_s": snapshot["latency"]["turnaround"]["mean"],
                "utilization": snapshot["utilization"],
                "backlog_end": snapshot["backlog"]["end"],
                "backlog_peak": snapshot["backlog"]["peak"],
                "unstable": bool(
                    snapshot["backlog"]["end"] > diverged_backlog
                    or snapshot["jobs"]["shed_rate"] > diverged_shed
                ),
            }
        )

    knee = detect_knee(
        [p["offered_load"] for p in points],
        [p["mean_turnaround_s"] for p in points],
        [p["unstable"] for p in points],
    )
    knee["rate_s"] = points[knee["index"]]["rate_s"]
    knee["p99_turnaround_s"] = points[knee["index"]]["p99_turnaround_s"]

    doc = {
        "schema": LOADSWEEP_SCHEMA,
        "config": {
            "mix": mix.name,
            "arrival": arrival_kind,
            "policy": policy_name,
            "seed": seed,
            "horizon_s": loop_config.horizon_s,
            "usable_nodes": usable_nodes,
            "capacity_rate_s": base_rate,
            "diverged_backlog": diverged_backlog,
            "diverged_shed": diverged_shed,
        },
        "points": points,
        "knee": knee,
    }
    return doc


def validate_loadsweep(doc) -> None:
    """Structural + consistency check of a load-sweep report.

    Raises :class:`~repro.errors.ConfigurationError` on any violation.
    """
    check(doc, LOADSWEEP_DOC, "loadsweep")
    points = doc["points"]
    for i, point in enumerate(points):
        if i and point["offered_load"] <= points[i - 1]["offered_load"]:
            raise ConfigurationError("points must ascend in offered_load")
        if point["p50_turnaround_s"] > point["p99_turnaround_s"] + 1e-12:
            raise ConfigurationError(f"point {i} p50 exceeds p99")
    knee = doc["knee"]
    if not 0 <= knee["index"] < len(points):
        raise ConfigurationError("knee index out of range")
    if knee["offered_load"] != points[knee["index"]]["offered_load"]:
        raise ConfigurationError("knee offered_load disagrees with its point")
