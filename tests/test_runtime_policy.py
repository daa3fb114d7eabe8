"""Queue-policy tests: FIFO extraction, fair-share tags, priorities."""

from dataclasses import dataclass

import pytest

from repro.errors import ConfigurationError
from repro.runtime.policy import FifoBackfill, WeightedFairShare, make_policy


@dataclass
class FakeJob:
    job_id: int
    tenant: str = "t"
    priority: int = 0
    partition_size: int = 4
    submit_s: float = 0.0
    cost: float = 4.0


class TestFifoBackfill:
    def test_orders_by_job_id(self):
        jobs = [FakeJob(2), FakeJob(0), FakeJob(1)]
        assert [j.job_id for j in FifoBackfill().order(jobs, 0.0)] == [0, 1, 2]

    def test_name(self):
        assert FifoBackfill().name == "fifo"


class TestWeightedFairShare:
    def test_heavier_tenant_ranks_first_at_equal_backlog(self):
        policy = WeightedFairShare({"heavy": 4.0, "light": 1.0})
        a = FakeJob(0, tenant="light")
        b = FakeJob(1, tenant="heavy")
        policy.on_submit(a, 0.0)
        policy.on_submit(b, 0.0)
        # Both have start tag 0; id breaks the tie. Submit a second round:
        # light's finish tag advanced 4x further than heavy's.
        c = FakeJob(2, tenant="light")
        d = FakeJob(3, tenant="heavy")
        policy.on_submit(c, 0.0)
        policy.on_submit(d, 0.0)
        ranked = [j.job_id for j in policy.order([c, d], 0.0)]
        assert ranked == [3, 2]

    def test_priority_dominates_tags(self):
        policy = WeightedFairShare()
        urgent = FakeJob(5, tenant="a", priority=3)
        backlogged = FakeJob(1, tenant="b")
        policy.on_submit(backlogged, 0.0)
        policy.on_submit(urgent, 0.0)
        ranked = [j.job_id for j in policy.order([backlogged, urgent], 0.0)]
        assert ranked == [5, 1]

    def test_heavy_backlog_cannot_starve_light_tenant(self):
        policy = WeightedFairShare({"heavy": 1.0, "light": 1.0})
        burst = [FakeJob(i, tenant="heavy") for i in range(10)]
        for job in burst:
            policy.on_submit(job, 0.0)
        late = FakeJob(10, tenant="light")
        policy.on_submit(late, 0.0)
        # The light tenant's single job outranks most of the burst: its
        # start tag is the global vtime (0), the burst's tags stack up.
        ranked = [j.job_id for j in policy.order(burst + [late], 0.0)]
        assert ranked.index(10) <= 1

    def test_replay_identical(self):
        def run():
            policy = WeightedFairShare({"a": 2.0, "b": 1.0})
            jobs = [
                FakeJob(i, tenant=("a" if i % 3 else "b"), cost=1.0 + i % 4)
                for i in range(12)
            ]
            for job in jobs:
                policy.on_submit(job, float(i := job.job_id))
            return [j.job_id for j in policy.order(jobs, 12.0)]

        assert run() == run()

    def test_idle_tenant_reenters_at_current_vtime(self):
        policy = WeightedFairShare()
        early = FakeJob(0, tenant="busy", cost=100.0)
        policy.on_submit(early, 0.0)
        policy.on_start(early, 0.0)
        # busy tenant racks up tag debt; a fresh tenant arriving later
        # starts at the global vtime, not at 0 relative advantage.
        policy.on_submit(FakeJob(1, tenant="busy"), 0.0)
        policy.on_start(FakeJob(1, tenant="busy", cost=100.0), 0.0)
        newcomer = FakeJob(2, tenant="fresh")
        policy.on_submit(newcomer, 50.0)
        assert policy._tags[2] == policy._vtime

    def test_weight_validation(self):
        with pytest.raises(ConfigurationError):
            WeightedFairShare({"t": 0.0})
        with pytest.raises(ConfigurationError):
            WeightedFairShare(default_weight=-1.0)


class TestStaticKeys:
    @pytest.mark.parametrize("policy", [FifoBackfill(), WeightedFairShare({"a": 3.0})])
    def test_order_sorts_by_key(self, policy):
        jobs = [
            FakeJob(i, tenant="ab"[i % 2], priority=i % 3, cost=1.0 + i)
            for i in (4, 0, 3, 1, 2)
        ]
        for job in jobs:
            policy.on_submit(job, 0.0)
        ranked = policy.order(jobs, 0.0)
        assert [policy.key(j) for j in ranked] == sorted(policy.key(j) for j in jobs)

    def test_fair_key_fixed_from_submit_until_start(self):
        policy = WeightedFairShare({"a": 2.0, "b": 1.0})
        waiting = [FakeJob(i, tenant="ab"[i % 2], cost=3.0) for i in range(4)]
        for job in waiting:
            policy.on_submit(job, 0.0)
        keys = [policy.key(j) for j in waiting]
        # Other jobs moving through every hook leave the waiting keys alone.
        for i in range(4, 10):
            other = FakeJob(i, tenant="abc"[i % 3], priority=i % 2, cost=float(i))
            policy.on_submit(other, float(i))
            policy.on_start(other, float(i))
            policy.on_finish(other, float(i) + 1.0)
        assert [policy.key(j) for j in waiting] == keys


class TestMakePolicy:
    def test_builds_both(self):
        assert make_policy("fifo").name == "fifo"
        fair = make_policy("fair", weights={"t": 2.0})
        assert fair.name == "fair" and fair.weights == {"t": 2.0}

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            make_policy("lottery")


class TestSchedulerIntegration:
    def test_scheduler_accepts_fair_policy(self):
        from repro.runtime import JobSpec, RunOptions, Scheduler, machine_template
        from repro.workload import nas_suite

        trace = nas_suite(0.1)[0]
        sched = Scheduler(
            machine_template("paragon"),
            policy=WeightedFairShare({"a": 2.0, "b": 1.0}),
        )
        for i, tenant in enumerate(("a", "b", "a", "b")):
            sched.submit(
                JobSpec(
                    program="workload",
                    params={"trace": trace},
                    options=RunOptions(nranks=32),
                    name=f"job{i}",
                    tenant=tenant,
                )
            )
        results = sched.run()
        assert len(results) == 4
        assert all(r.turnaround_s > 0.0 for r in results)
