"""Adversarial scenario suite: hostile ranks, certification, fuzzing.

The paper's SPMD programs assume every rank cooperates; this package
drops that assumption.  It layers *intentional* misbehavior — selective
silence, wire jamming, tag floods, crafted payload poisoning, stale
replay, hostile reordering, straggler cartels, Byzantine reducers — on
top of the random fault machinery (:mod:`repro.machines.faults`), and
certifies that every registered attack is either **detected** by a
defense layer (causality deadlock diagnosis, reliable-transport budget,
the static linter, the value-transparency digest oracle) or **survived**
bitwise (results digest-identical to the clean reference, through
checkpoint/restart recovery if needed).  Silent corruption is the one
outcome the suite exists to rule out.

Layout:

* :mod:`~repro.scenarios.adversary` — the seeded, replay-deterministic
  adversary overlay (:class:`AdversaryPlan` wrapping a ``FaultPlan``).
* :mod:`~repro.scenarios.registry` — stable-id :class:`ScenarioDef`
  entries with expected verdicts per app.
* :mod:`~repro.scenarios.certify` — the detect-or-survive driver.
* :mod:`~repro.scenarios.fuzz` — the (scenario, seed, placement) fuzzer
  and the persisted ``repro.scenarios.findings/v1`` corpus.
* :mod:`~repro.scenarios.service_attack` — hostile-tenant floods against
  the :mod:`repro.service` loop and the attacked-vs-clean knee.

CLI: ``python -m repro attack`` (single scenario, ``--fuzz``,
``--replay FINDING_ID``, ``--knee``).
"""

from repro.scenarios.adversary import (
    BEHAVIORS,
    AdversaryAction,
    AdversaryConfig,
    AdversaryPlan,
)
from repro.scenarios.certify import (
    Certification,
    CertificationError,
    certify,
    certify_matrix,
    check_expected,
    clean_reference_digest,
    result_digest,
)
from repro.scenarios.fuzz import (
    DEFAULT_PLACEMENTS,
    DEFAULT_SEEDS,
    FINDINGS_SCHEMA,
    empty_corpus,
    finding_from_certification,
    finding_id,
    load_corpus,
    merge_findings,
    replay_finding,
    run_fuzz,
    validate_findings,
)
from repro.scenarios.registry import (
    APPS,
    CHECKPOINT_INTERVAL,
    NRANKS,
    SCENARIOS,
    ScenarioDef,
    build_app,
    build_machine,
    get_scenario,
    scenario_ids,
)
from repro.scenarios.service_attack import (
    ATTACK_SWEEP_SCHEMA,
    ATTACKER_TENANT,
    attacked_sweep,
    hostile_mix,
)

__all__ = [
    # adversary
    "BEHAVIORS",
    "AdversaryAction",
    "AdversaryConfig",
    "AdversaryPlan",
    # registry
    "APPS",
    "CHECKPOINT_INTERVAL",
    "NRANKS",
    "SCENARIOS",
    "ScenarioDef",
    "build_app",
    "build_machine",
    "get_scenario",
    "scenario_ids",
    # certification
    "Certification",
    "CertificationError",
    "certify",
    "certify_matrix",
    "check_expected",
    "clean_reference_digest",
    "result_digest",
    # fuzzing / corpus
    "DEFAULT_PLACEMENTS",
    "DEFAULT_SEEDS",
    "FINDINGS_SCHEMA",
    "empty_corpus",
    "finding_from_certification",
    "finding_id",
    "load_corpus",
    "merge_findings",
    "replay_finding",
    "run_fuzz",
    "validate_findings",
    # service attack
    "ATTACK_SWEEP_SCHEMA",
    "ATTACKER_TENANT",
    "attacked_sweep",
    "hostile_mix",
]
