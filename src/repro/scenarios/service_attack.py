"""Shed/backlog attacks on the multi-tenant service loop.

The engine-level adversaries attack one run; this module attacks the
always-on service: a hostile tenant floods the arrival stream with small
batchable requests (the service-level twin of the ``spam-flood``
scenario), and the load-sweep autopilot re-measures the saturation knee
under attack.  Three sweeps tell the story:

* **clean** — the base mix, the knee the autopilot normally reports.
* **attacked** — the hostile tenant admitted unchecked: its share of
  arrivals steals capacity, so the knee (in legitimate req/s) collapses
  and backlog/shed diverge earlier.
* **defended** — the same hostile mix behind an
  :class:`~repro.service.admission.AdmissionController` rate-limiting
  the attacker: the flood is shed with typed ``rate-limit`` rejections
  and the knee recovers most of the clean capacity.

The attacked/defended sweeps reuse the *clean* capacity estimate for
their offered-load grid, so every sweep offers the same absolute req/s
points and the knees compare in one unit.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.schema import Bound, Maybe, Record
from repro.service.admission import AdmissionController
from repro.service.autopilot import (
    DEFAULT_MULTIPLIERS,
    LOADSWEEP_DOC,
    estimate_capacity_rate,
    run_load_sweep,
)
from repro.service.workloads import Mix, TenantProfile

__all__ = [
    "ATTACK_SWEEP_SCHEMA",
    "ATTACK_SWEEP_DOC",
    "ATTACKER_TENANT",
    "hostile_mix",
    "attacked_sweep",
]

ATTACK_SWEEP_SCHEMA = "repro.scenarios.attacksweep/v1"

_SWEEPS = ("clean", "attacked", "defended")
_SUMMARY = Record(
    dict(
        knee_detected=bool, knee_rate_s=Maybe(float), knee_offered_load=Maybe(float),
        knee_p99_turnaround_s=Maybe(float), capacity_rate_s=float, offered=int,
        completed=int, worst_shed_rate=Bound(float, ge=0.0, le=1.0),
        worst_backlog_end=int,
    ),
    exact=True,
)
ATTACK_SWEEP_DOC = Record(
    dict(
        dict.fromkeys(_SWEEPS, _SUMMARY),
        schema=(ATTACK_SWEEP_SCHEMA,),
        attack=Record(
            dict(
                tenant=str, weight=float, defense_rate_s=float,
                clean_capacity_rate_s=float, flooded_capacity_rate_s=float,
            ),
            exact=True,
        ),
        sweeps=Record(dict.fromkeys(_SWEEPS, LOADSWEEP_DOC), exact=True),
    ),
    exact=True,
)

#: Name of the injected hostile tenant (the admission defense keys on it).
ATTACKER_TENANT = "attacker"


def hostile_mix(mix: Mix, *, weight: float = 4.0, work: str | None = None) -> Mix:
    """``mix`` plus a flooding tenant of the given arrival ``weight``.

    The attacker submits the smallest batchable template in the mix (or
    ``work`` if named) — maximally plausible traffic, just far too much
    of it.
    """
    if weight <= 0.0:
        raise ConfigurationError(f"attacker weight must be > 0, got {weight}")
    for tenant in mix.tenants:
        if tenant.name == ATTACKER_TENANT:
            raise ConfigurationError(f"mix {mix.name!r} already has an attacker")
    if work is None:
        candidates = sorted(
            (template.nranks, name)
            for name, template in sorted(mix.templates.items())
            if template.batchable
        ) or sorted(
            (template.nranks, name) for name, template in sorted(mix.templates.items())
        )
        if not candidates:
            raise ConfigurationError(f"mix {mix.name!r} has no templates to flood")
        work = candidates[0][1]
    elif work not in mix.templates:
        raise ConfigurationError(f"mix {mix.name!r} has no template {work!r}")
    attacker = TenantProfile(
        name=ATTACKER_TENANT, weight=weight, priority=0, work=((work, 1.0),)
    )
    return Mix(
        name=f"{mix.name}+attack",
        tenants=mix.tenants + (attacker,),
        templates=dict(mix.templates),
        pipelines=dict(mix.pipelines),
    )


def _knee_summary(doc: dict) -> dict:
    """The comparable core of one loadsweep report."""
    knee = doc["knee"]
    total_offered = sum(p["offered"] for p in doc["points"])
    total_completed = sum(p["completed"] for p in doc["points"])
    worst_shed = max(p["shed_rate"] for p in doc["points"])
    worst_backlog = max(p["backlog_end"] for p in doc["points"])
    return {
        "knee_detected": knee["detected"],
        "knee_rate_s": knee.get("rate_s"),
        "knee_offered_load": knee.get("offered_load"),
        "knee_p99_turnaround_s": knee.get("p99_turnaround_s"),
        "capacity_rate_s": doc["config"]["capacity_rate_s"],
        "offered": total_offered,
        "completed": total_completed,
        "worst_shed_rate": worst_shed,
        "worst_backlog_end": worst_backlog,
    }


def attacked_sweep(
    usable_nodes: int,
    mix: Mix,
    oracle,
    *,
    attacker_weight: float = 4.0,
    defense_rate_s: float | None = None,
    multipliers=DEFAULT_MULTIPLIERS,
    arrival_kind: str = "poisson",
    seed: int = 0,
    horizon_s: float = 40.0,
    policy_name: str = "fair",
) -> dict:
    """Re-measure the autopilot knee under a hostile-tenant flood.

    Returns a ``repro.scenarios.attacksweep/v1`` document with the three
    sweeps (clean / attacked / defended) summarized side by side, plus
    the full per-sweep loadsweep reports under ``sweeps``.

    ``defense_rate_s`` is the admission rate limit imposed on the
    attacker in the defended sweep; the default contracts it to 10% of
    the clean capacity estimate.
    """
    flooded = hostile_mix(mix, weight=attacker_weight)
    clean_capacity = estimate_capacity_rate(mix, oracle, usable_nodes)
    flooded_capacity = estimate_capacity_rate(flooded, oracle, usable_nodes)
    # Same absolute req/s grid for every sweep: rescale the hostile
    # sweeps' multipliers by the capacity ratio.
    rescale = clean_capacity / flooded_capacity
    hostile_multipliers = tuple(m * rescale for m in multipliers)
    if defense_rate_s is None:
        defense_rate_s = 0.1 * clean_capacity
    common = {
        "arrival_kind": arrival_kind,
        "seed": seed,
        "horizon_s": horizon_s,
        "policy_name": policy_name,
    }
    clean = run_load_sweep(
        usable_nodes, mix, oracle, multipliers=multipliers, **common
    )
    attacked = run_load_sweep(
        usable_nodes, flooded, oracle, multipliers=hostile_multipliers, **common
    )
    defended = run_load_sweep(
        usable_nodes,
        flooded,
        oracle,
        multipliers=hostile_multipliers,
        admission=AdmissionController(
            tenant_rate_limits={ATTACKER_TENANT: defense_rate_s}
        ),
        **common,
    )
    return {
        "schema": ATTACK_SWEEP_SCHEMA,
        "attack": {
            "tenant": ATTACKER_TENANT,
            "weight": attacker_weight,
            "defense_rate_s": defense_rate_s,
            "clean_capacity_rate_s": clean_capacity,
            "flooded_capacity_rate_s": flooded_capacity,
        },
        "clean": _knee_summary(clean),
        "attacked": _knee_summary(attacked),
        "defended": _knee_summary(defended),
        "sweeps": {"clean": clean, "attacked": attacked, "defended": defended},
    }
