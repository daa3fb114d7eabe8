"""The always-on service event loop (open-loop, virtual time).

:class:`Service` wires the subsystem together: a seeded
:class:`~repro.service.arrivals.ArrivalProcess` emits request instants;
a seeded mix draw assigns each to a tenant and a work shape; the
:class:`~repro.service.admission.AdmissionController` sheds excess at
the door; admitted small requests coalesce in per-(tenant, template)
*batches* (one submission, one partition allocation, many images);
submissions queue under a :class:`~repro.runtime.policy.QueuePolicy`
over the same buddy :class:`~repro.machines.partition.PartitionManager`
the batch scheduler uses; and every completion, shed, and backlog sample
lands in the :class:`~repro.service.accounting.Accounting` sink.

Service times come from a workload oracle
(:class:`~repro.service.workloads.EngineOracle` measures each template
once through the engine and caches the virtual seconds), so the loop is
a discrete-event simulation over exact per-template engine timings: a
heap of (time, seq, event) tuples processed in deterministic order.
Everything — arrivals, mix draws, admission, queueing, completion order —
is a pure function of (mix, arrival process, seed, config).
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.machines.network import FullyConnected
from repro.machines.partition import PartitionManager
from repro.runtime.policy import QueuePolicy, WeightedFairShare
from repro.service.accounting import Accounting, ItemRecord
from repro.service.admission import AdmissionController
from repro.service.arrivals import ArrivalProcess
from repro.service.workloads import JobTemplate, Mix

__all__ = ["ServiceConfig", "Service", "ServiceReport"]

# Event kinds, in tie-break order at equal virtual time: finishing jobs
# free partitions before new arrivals are admitted, closing batches see
# every item that arrived at or before the close instant, and the
# scheduling pass after SAMPLE events observes a settled queue.
_FINISH, _ARRIVAL, _BATCH_CLOSE, _SAMPLE = 0, 1, 2, 3


@dataclass(frozen=True)
class ServiceConfig:
    """Loop knobs (all virtual seconds).

    ``horizon_s`` bounds the arrival stream; admitted work drains to
    completion afterwards (the backlog at the horizon is reported as
    ``backlog.end``).  ``batch_window_s``/``max_batch`` control
    coalescing of batchable templates; ``sample_interval_s`` paces
    backlog depth samples.
    """

    horizon_s: float = 60.0
    batch_window_s: float = 0.25
    max_batch: int = 8
    sample_interval_s: float = 1.0

    def __post_init__(self):
        if self.horizon_s <= 0.0:
            raise ConfigurationError(f"horizon_s must be > 0, got {self.horizon_s}")
        if self.batch_window_s < 0.0:
            raise ConfigurationError("batch_window_s must be >= 0")
        if self.max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")
        if self.sample_interval_s <= 0.0:
            raise ConfigurationError("sample_interval_s must be > 0")


@dataclass
class _Submission:
    """One schedulable unit: a batch of items sharing a template."""

    job_id: int
    tenant: str
    priority: int
    template: JobTemplate
    arrivals: list  # per-item arrival instants
    service_s: float
    submit_s: float
    pipeline: tuple | None = None  # (pipeline_instance_id, stage_index)

    @property
    def partition_size(self) -> int:
        return self.template.partition_size

    @property
    def cost(self) -> float:
        """Node-seconds the fair-share policy charges."""
        return self.partition_size * self.service_s


@dataclass
class _PipelineInstance:
    instance_id: int
    name: str
    tenant: str
    priority: int
    arrival_s: float
    stages: tuple
    stage_index: int = 0
    outstanding: int = 0


@dataclass
class ServiceReport:
    """Everything one service run produced."""

    snapshot: dict
    accounting: Accounting
    backlog_end: int
    makespan_s: float

    @property
    def p99_turnaround_s(self) -> float:
        return self.snapshot["latency"]["turnaround"]["p99"]

    @property
    def p50_turnaround_s(self) -> float:
        return self.snapshot["latency"]["turnaround"]["p50"]


class Service:
    """Multi-tenant wavelet service simulation over one machine.

    Parameters
    ----------
    usable_nodes:
        Node pool the buddy allocator space-shares (a power of two; use
        :func:`repro.runtime.machine_template` ``.total_nodes`` for a
        calibrated machine).
    mix / arrivals / oracle:
        The tenant workload mix, the open-loop arrival process, and the
        service-time oracle (``service_s(template) -> float``).
    policy:
        Queue discipline; defaults to
        :class:`~repro.runtime.policy.WeightedFairShare` over the mix's
        tenant weights.
    admission:
        Optional :class:`AdmissionController`; ``None`` admits all.
    seed:
        Seeds the tenant/work mix draws (the arrival process carries its
        own seed).
    """

    def __init__(
        self,
        usable_nodes: int,
        mix: Mix,
        arrivals: ArrivalProcess,
        oracle,
        *,
        policy: QueuePolicy | None = None,
        admission: AdmissionController | None = None,
        accounting: Accounting | None = None,
        config: ServiceConfig | None = None,
        seed: int = 0,
    ) -> None:
        if usable_nodes < 1:
            raise ConfigurationError(f"usable_nodes must be >= 1, got {usable_nodes}")
        # The buddy allocator floors to a power of two; use its view of
        # the pool everywhere (fit checks, utilization denominator).
        self.partitions = PartitionManager(FullyConnected(usable_nodes))
        self.usable_nodes = self.partitions.usable_nodes
        self.mix = mix
        self.arrivals = arrivals
        self.oracle = oracle
        self.policy = (
            policy
            if policy is not None
            else WeightedFairShare(mix.tenant_weights())
        )
        self.admission = admission
        self.accounting = accounting if accounting is not None else Accounting()
        self.config = config if config is not None else ServiceConfig()
        self.seed = seed
        for template in sorted(mix.templates.values(), key=lambda t: t.name):
            if template.partition_size > self.usable_nodes:
                raise ConfigurationError(
                    f"template {template.name!r} needs a "
                    f"{template.partition_size}-node partition; the service "
                    f"machine offers {self.usable_nodes}"
                )
        # -- run state -------------------------------------------------------
        self._events: list = []
        self._seq = 0
        self._pending: dict = {}  # partition size -> heap of (policy key, submission)
        self._queued = 0
        self._running = 0
        self._open_batches: dict = {}  # (tenant, priority, template) -> [arrivals]
        self._pipelines: dict = {}
        self._next_job_id = 0
        self._next_pipeline_id = 0
        self._tenant_backlog: dict = {}
        self._makespan_s = 0.0
        self._backlog_end: int | None = None
        self._ran = False

    # -- event plumbing ------------------------------------------------------

    def _push(self, time_s: float, kind: int, payload) -> None:
        heapq.heappush(self._events, (time_s, kind, self._seq, payload))
        self._seq += 1

    def _backlog_depth(self) -> int:
        """Queued submissions plus items waiting in open batches."""
        batched = sum(len(items) for items in self._open_batches.values())
        return self._queued + batched

    def _tenant_depth(self, tenant: str) -> int:
        return self._tenant_backlog.get(tenant, 0)

    def _bump_tenant(self, tenant: str, delta: int) -> None:
        self._tenant_backlog[tenant] = self._tenant_depth(tenant) + delta

    # -- the loop ------------------------------------------------------------

    def run(self) -> ServiceReport:
        """Drive arrivals to the horizon, drain, and snapshot the metrics."""
        if self._ran:
            raise ConfigurationError("a Service instance runs exactly once")
        self._ran = True
        config = self.config
        mix_rng = random.Random(self.seed)

        for time_s in self.arrivals.times(config.horizon_s):
            tenant = self.mix.pick_tenant(mix_rng)
            work = self.mix.pick_work(mix_rng, tenant)
            self._push(time_s, _ARRIVAL, (tenant, work))
        self._push(config.sample_interval_s, _SAMPLE, None)

        while self._events:
            time_s, kind, _, payload = heapq.heappop(self._events)
            if self._backlog_end is None and time_s > config.horizon_s:
                # First event past the horizon: the queue state right now
                # is the steady-state backlog the arrivals left behind.
                self._backlog_end = self._backlog_depth()
            if time_s > self._makespan_s:
                self._makespan_s = time_s
            if kind == _ARRIVAL:
                self._handle_arrival(time_s, *payload)
            elif kind == _BATCH_CLOSE:
                self._close_batch(time_s, payload)
            elif kind == _FINISH:
                self._handle_finish(time_s, payload)
            else:  # _SAMPLE
                self._handle_sample(time_s)
            self._schedule_pass(time_s)

        if self._backlog_end is None:
            self._backlog_end = self._backlog_depth()
        if self._queued or self._open_batches:
            raise ConfigurationError(
                "service loop ended with work still queued; this should be "
                "impossible because every admitted submission fits the machine"
            )
        snapshot = self.accounting.snapshot(
            config=self._config_doc(),
            usable_nodes=self.usable_nodes,
            elapsed_s=self._makespan_s,
            backlog_end=self._backlog_end,
        )
        return ServiceReport(
            snapshot=snapshot,
            accounting=self.accounting,
            backlog_end=self._backlog_end,
            makespan_s=self._makespan_s,
        )

    def _config_doc(self) -> dict:
        return {
            "mix": self.mix.name,
            "arrival": self.arrivals.describe(),
            "policy": self.policy.name,
            "admission": (
                self.admission.describe() if self.admission is not None else "open"
            ),
            "usable_nodes": self.usable_nodes,
            "horizon_s": self.config.horizon_s,
            "batch_window_s": self.config.batch_window_s,
            "max_batch": self.config.max_batch,
            "seed": self.seed,
        }

    # -- arrival / batching --------------------------------------------------

    def _handle_arrival(self, time_s: float, tenant, work: str) -> None:
        is_pipeline = self.mix.is_pipeline(work)
        items = (
            sum(len(stage) for stage in self.mix.pipelines[work].stages)
            if is_pipeline
            else 1
        )
        self.accounting.record_offered(items)
        if self.admission is not None:
            rejection = self.admission.admit(
                time_s,
                tenant.name,
                work,
                tenant_backlog=self._tenant_depth(tenant.name),
                total_backlog=self._backlog_depth(),
            )
            if rejection is not None:
                for _ in range(items):
                    self.accounting.record_shed(rejection)
                return
        if is_pipeline:
            self._start_pipeline(time_s, tenant, work)
            return
        template = self.mix.templates[work]
        if template.batchable and self.config.max_batch > 1:
            self._join_batch(time_s, tenant, template)
        else:
            self._submit(
                time_s, tenant.name, tenant.priority, template, [time_s]
            )

    def _join_batch(self, time_s: float, tenant, template: JobTemplate) -> None:
        key = (tenant.name, tenant.priority, template)
        bucket = self._open_batches.get(key)
        if bucket is None:
            self._open_batches[key] = [time_s]
            self._push(time_s + self.config.batch_window_s, _BATCH_CLOSE, key)
            return
        bucket.append(time_s)
        if len(bucket) >= self.config.max_batch:
            self._close_batch(time_s, key)

    def _close_batch(self, time_s: float, key) -> None:
        bucket = self._open_batches.pop(key, None)
        if bucket is None:
            return  # already flushed by the max-batch trigger
        self._submit(time_s, *key, bucket)

    def _start_pipeline(self, time_s: float, tenant, work: str) -> None:
        pipeline = self.mix.pipelines[work]
        instance = _PipelineInstance(
            instance_id=self._next_pipeline_id,
            name=work,
            tenant=tenant.name,
            priority=tenant.priority,
            arrival_s=time_s,
            stages=pipeline.stages,
        )
        self._next_pipeline_id += 1
        self._pipelines[instance.instance_id] = instance
        self._submit_stage(time_s, instance)

    def _submit_stage(self, time_s: float, instance: _PipelineInstance) -> None:
        stage = instance.stages[instance.stage_index]
        instance.outstanding = len(stage)
        for template_name in stage:
            self._submit(
                time_s,
                instance.tenant,
                instance.priority,
                self.mix.templates[template_name],
                [instance.arrival_s],
                pipeline=(instance.instance_id, instance.stage_index),
            )

    def _submit(
        self,
        time_s: float,
        tenant: str,
        priority: int,
        template: JobTemplate,
        arrivals: list,
        *,
        pipeline: tuple | None = None,
    ) -> None:
        service_s = len(arrivals) * self.oracle.service_s(template)
        submission = _Submission(
            job_id=self._next_job_id,
            tenant=tenant,
            priority=priority,
            template=template,
            arrivals=list(arrivals),
            service_s=service_s,
            submit_s=time_s,
            pipeline=pipeline,
        )
        self._next_job_id += 1
        self._bump_tenant(tenant, 1)
        self.accounting.record_submission()
        self.policy.on_submit(submission, time_s)
        heapq.heappush(
            self._pending.setdefault(template.partition_size, []),
            (self.policy.key(submission), submission),
        )
        self._queued += 1

    # -- scheduling / completion ---------------------------------------------

    def _schedule_pass(self, time_s: float) -> None:
        """Start the best-ranked queued submission that fits until none
        does: a buddy allocation fits iff the largest free block is at
        least its size, and allocating never grows that block."""
        free = self.partitions.largest_free_block()
        while self._queued:
            fits = [h[0] for size, h in sorted(self._pending.items()) if h and size <= free]
            if not fits:
                return
            submission = heapq.heappop(self._pending[min(fits)[1].partition_size])[1]
            self._queued -= 1
            partition = self.partitions.allocate(submission.partition_size)
            self.policy.on_start(submission, time_s)
            finish_s = time_s + submission.service_s
            self._push(finish_s, _FINISH, (submission, partition, time_s))
            self._running += 1
            free = self.partitions.largest_free_block()

    def _handle_finish(self, time_s: float, payload) -> None:
        submission, partition, start_s = payload
        self.partitions.release(partition)
        self._running -= 1
        self._bump_tenant(submission.tenant, -1)
        self.policy.on_finish(submission, time_s)
        self.accounting.record_service(
            submission.partition_size, submission.service_s
        )
        if submission.pipeline is None:
            records = [
                ItemRecord(
                    tenant=submission.tenant,
                    template=submission.template.name,
                    arrival_s=arrival_s,
                    start_s=start_s,
                    finish_s=time_s,
                    batch_size=len(submission.arrivals),
                )
                for arrival_s in submission.arrivals
            ]
            self.accounting.record_items(records)
            return
        instance_id, stage_index = submission.pipeline
        instance = self._pipelines[instance_id]
        self.accounting.record_items(
            [
                ItemRecord(
                    tenant=submission.tenant,
                    template=submission.template.name,
                    arrival_s=submission.submit_s,
                    start_s=start_s,
                    finish_s=time_s,
                )
            ]
        )
        instance.outstanding -= 1
        if instance.outstanding > 0:
            return
        instance.stage_index += 1
        if instance.stage_index < len(instance.stages):
            self._submit_stage(time_s, instance)
        else:
            self.accounting.record_pipeline(
                instance.arrival_s, time_s, instance.tenant
            )
            del self._pipelines[instance_id]

    def _handle_sample(self, time_s: float) -> None:
        self.accounting.record_backlog(time_s, self._backlog_depth())
        next_s = time_s + self.config.sample_interval_s
        if next_s <= self.config.horizon_s:
            self._push(next_s, _SAMPLE, None)
