"""The service scheduling pass against the walk it replaced.

``Service._schedule_pass`` starts the best-ranked heap top among the
size classes that fit the largest free buddy block, until none fits.
The reference below is the old pass, kept only here: rank the whole
backlog with ``policy.order`` and try ``allocate`` on every submission,
skipping each one that raises.  Every real pass is checked against it on
a copy of the allocator, and after every pass no queued submission may
fit (backfill is maximal).  The snapshot pins were taken with the old
pass still in the service loop and must not move.
"""

import copy
import dataclasses
import hashlib
import json

import pytest

from repro.errors import ConfigurationError
from repro.runtime import machine_template, make_policy
from repro.service import (
    AdmissionController,
    EngineOracle,
    Mix,
    Service,
    ServiceConfig,
    estimate_capacity_rate,
    get_mix,
    parse_arrival_spec,
)
from repro.service.loop import _FINISH

NODES = machine_template("paragon", protocol="nx").total_nodes
ORACLE = EngineOracle("paragon", protocol="nx")
_DEFAULT = get_mix("default")
# The default tenants have distinct priorities, which reduces fair-share
# to (priority, job id); the flat mix makes the start tags decide.
MIXES = {
    "default": _DEFAULT,
    "flat": Mix(
        name="flat",
        tenants=tuple(dataclasses.replace(t, priority=0) for t in _DEFAULT.tenants),
        templates=_DEFAULT.templates,
        pipelines=_DEFAULT.pipelines,
    ),
}
#: (policy, mix) pairs that rank differently.
RANKINGS = [("fifo", "default"), ("fair", "default"), ("fair", "flat")]


def make_service(policy, mix_name, load, seed, *, arrival="poisson", horizon_s=5.0,
                 max_batch=8, admission=None):
    mix = MIXES[mix_name]
    rate_s = load * estimate_capacity_rate(mix, ORACLE, NODES)
    return Service(
        NODES,
        mix,
        parse_arrival_spec(arrival, seed, rate_s=rate_s),
        ORACLE,
        policy=make_policy(policy, weights=mix.tenant_weights()),
        admission=admission,
        config=ServiceConfig(horizon_s=horizon_s, max_batch=max_batch),
        seed=seed,
    )


def reference_pass(policy, partitions, pending, time_s):
    """The retained walk: (job id, first node, last node) per start, and
    how many allocations failed."""
    started, failed = [], 0
    for submission in policy.order(pending, time_s):
        try:
            partition = partitions.allocate(submission.partition_size)
        except ConfigurationError:
            failed += 1
            continue
        started.append((submission.job_id, partition.nodes[0], partition.nodes[-1]))
    return started, failed


@pytest.fixture
def checked_passes(monkeypatch):
    """Wrap every scheduling pass with the reference and the maximality
    check; returns the run's tally of starts and reference failures."""
    real_pass = Service._schedule_pass
    tally = {"started": 0, "failed": 0}

    def checked(self, time_s):
        pending = [s for heap in self._pending.values() for _, s in heap]
        expected, failed = reference_pass(
            self.policy, copy.deepcopy(self.partitions), pending, time_s
        )
        started = []
        push = self._push

        def spy(at_s, kind, payload):
            if kind == _FINISH:
                submission, partition, _ = payload
                started.append(
                    (submission.job_id, partition.nodes[0], partition.nodes[-1])
                )
            push(at_s, kind, payload)

        self._push = spy
        try:
            real_pass(self, time_s)
        finally:
            del self._push
        assert started == expected, f"pass at t={time_s} diverged from the walk"
        assert self._queued == len(pending) - len(started)
        queued_sizes = [size for size, heap in self._pending.items() if heap]
        assert min(queued_sizes, default=NODES + 1) > self.partitions.largest_free_block()
        tally["started"] += len(started)
        tally["failed"] += failed

    monkeypatch.setattr(Service, "_schedule_pass", checked)
    return tally


class TestPassMatchesRetainedWalk:
    @pytest.mark.parametrize("policy,mix", RANKINGS)
    @pytest.mark.parametrize("arrival", ["poisson", "bursty"])
    @pytest.mark.parametrize("load", [0.25, 1.0, 3.0])
    @pytest.mark.parametrize("max_batch", [1, 4])
    def test_open_admission(self, checked_passes, policy, mix, arrival, load, max_batch):
        # Every load offers about the same number of requests; the
        # reference's failed allocations grow with the backlog.
        report = make_service(
            policy, mix, load, 5, arrival=arrival, horizon_s=0.3 / load,
            max_batch=max_batch,
        ).run()
        assert checked_passes["started"] == report.snapshot["jobs"]["submissions"]
        if load >= 1.0:
            # Overload blocks submissions, so the pruning is exercised.
            assert checked_passes["failed"] > 0

    @pytest.mark.parametrize("policy,mix", RANKINGS)
    @pytest.mark.parametrize(
        "limits", [{"queue_limit": 12}, {"tenant_backlog_limit": 4}]
    )
    def test_admission_limits(self, checked_passes, policy, mix, limits):
        report = make_service(
            policy, mix, 3.0, 2, horizon_s=0.5, max_batch=4,
            admission=AdmissionController(**limits),
        ).run()
        assert report.snapshot["jobs"]["shed"] > 0
        assert checked_passes["failed"] > 0


#: sha256 of the ``serve --format json`` snapshot (paragon, poisson,
#: horizon 5 s) per (policy, mix, load, seed), taken from the
#: try-every-allocation pass.
SNAPSHOT_PINS = {
    ("fair", "default", 0.5, 0): "1902a37904eeca78f3ef125dcef46f4cf4e413ab14c39e2a8636d6caadfee225",
    ("fair", "default", 0.5, 3): "2a549f8d2dd4812272e1e041994962c1e90766fdf8e660fb009713337ad4f901",
    ("fair", "default", 2.0, 0): "5433dccbff5745074f250e7190577b3541fe96e0ab60765c012f28cf8ea50b58",
    ("fair", "default", 2.0, 3): "3534f23ccdd278c18ae2ba400ddae2baaeee6009c812719941aea070da2e3834",
    ("fifo", "default", 0.5, 0): "607bc29925602c745a1a1c048417e815c463e353b5b180a8c8a37d059510e229",
    ("fifo", "default", 0.5, 3): "cc9332cf7303febd33fbdba613d647d55996a50b4ec62dafc277ec446535220e",
    ("fifo", "default", 2.0, 0): "01e7d6728eda7df8d0a7427ee55927a68de9dc6fa150ed02e3a68ae937c7fe02",
    ("fifo", "default", 2.0, 3): "8369b50f8b66a791f8ceebce5989e80989f9fc5a22c61962b279f8d0e1565f65",
    ("fair", "flat", 0.5, 0): "93e7827f665eb8b209908b50f28e326356df4cb77e26bd26cc62d13ed9ae0a6a",
    ("fair", "flat", 0.5, 3): "a5738b38f5816239390856db082a7710d5c0272aeb2013c783ba630979a290ce",
    ("fair", "flat", 2.0, 0): "7ac84d98977e161fdb163f83c3cf06af60194e83c44271e6a25e08d72b66909d",
    ("fair", "flat", 2.0, 3): "5745e3383ac1b23848349082c77ccf0d9b54aefbca7430a527af5959f5569707",
}


@pytest.mark.parametrize("case", sorted(SNAPSHOT_PINS), ids=str)
def test_snapshot_pinned(case):
    snapshot = make_service(*case).run().snapshot
    text = json.dumps(snapshot, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SNAPSHOT_PINS[case]
