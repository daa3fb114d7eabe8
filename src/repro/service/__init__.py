"""Multi-tenant service simulation layered on :mod:`repro.runtime`.

The paper's batch story ends at "run this decomposition on that
machine"; this package asks the production question — what happens when
*millions* of small requests arrive continuously?  It simulates an
always-on wavelet service in virtual time: seeded open-loop arrival
processes (:mod:`~repro.service.arrivals`), tenant workload mixes with
measured service times (:mod:`~repro.service.workloads`), admission
control (:mod:`~repro.service.admission`), a discrete-event loop over
the buddy partition allocator (:mod:`~repro.service.loop`), steady-state
accounting (:mod:`~repro.service.accounting`), and a closed-loop load
autopilot that finds the saturation knee
(:mod:`~repro.service.autopilot`).

Everything is replay-deterministic: no wall clock, every RNG seeded,
all results pure functions of (mix, arrival process, seed, config).
"""

from repro.service.accounting import (
    SNAPSHOT_SCHEMA,
    Accounting,
    ItemRecord,
    percentile,
    validate_snapshot,
)
from repro.service.admission import (
    REJECTION_REASONS,
    AdmissionController,
    Rejection,
    TokenBucket,
)
from repro.service.arrivals import (
    ARRIVAL_KINDS,
    ArrivalProcess,
    DiurnalProcess,
    MMPPProcess,
    PoissonProcess,
    parse_arrival_spec,
)
from repro.service.autopilot import (
    DEFAULT_MULTIPLIERS,
    LOADSWEEP_SCHEMA,
    detect_knee,
    estimate_capacity_rate,
    run_load_sweep,
    validate_loadsweep,
)
from repro.service.loop import Service, ServiceConfig, ServiceReport
from repro.service.workloads import (
    MIX_BUILDERS,
    EngineOracle,
    FixedOracle,
    JobTemplate,
    Mix,
    PipelineTemplate,
    TenantProfile,
    default_mix,
    get_mix,
)

__all__ = [
    # loop
    "Service",
    "ServiceConfig",
    "ServiceReport",
    # arrivals
    "ARRIVAL_KINDS",
    "ArrivalProcess",
    "PoissonProcess",
    "MMPPProcess",
    "DiurnalProcess",
    "parse_arrival_spec",
    # workloads
    "JobTemplate",
    "PipelineTemplate",
    "TenantProfile",
    "Mix",
    "EngineOracle",
    "FixedOracle",
    "default_mix",
    "get_mix",
    "MIX_BUILDERS",
    # admission
    "AdmissionController",
    "Rejection",
    "TokenBucket",
    "REJECTION_REASONS",
    # accounting
    "Accounting",
    "ItemRecord",
    "percentile",
    "SNAPSHOT_SCHEMA",
    "validate_snapshot",
    # autopilot
    "run_load_sweep",
    "detect_knee",
    "estimate_capacity_rate",
    "validate_loadsweep",
    "LOADSWEEP_SCHEMA",
    "DEFAULT_MULTIPLIERS",
]
