"""Pluggable queueing policies for the space-sharing scheduler.

The PR-4 :class:`~repro.runtime.scheduler.Scheduler` hard-wired one
discipline: scan the queue in submission order and start every job whose
partition fits (FIFO with greedy backfill).  The always-on service layer
(:mod:`repro.service`) needs other disciplines — per-tenant weighted
fair-share with priorities — without forking the allocation core, so the
discipline is now a :class:`QueuePolicy` object the scheduler consults
for *ordering only*.  Allocation, backfill-by-skipping, and virtual-time
bookkeeping stay in the caller: a policy ranks the eligible queue, the
caller starts whatever fits in that rank order.

Determinism contract: a policy ranks by a static :meth:`QueuePolicy.key`
that may depend only on job fields (id, tenant, priority, cost, submit
time) and on its own state updated through the
``on_submit``/``on_start``/``on_finish`` hooks — never on wall clock,
hash order, or ambient RNG.  A job's key is fixed from its ``on_submit``
until its ``on_start`` (hooks fired for other jobs never move it), so a
caller may compute it once and keep the job in a heap.  Every key ends in
``job_id`` so identical submissions replay identically.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

__all__ = ["QueuePolicy", "FifoBackfill", "WeightedFairShare", "make_policy"]


class QueuePolicy:
    """Ordering discipline consulted by the scheduling pass.

    Subclasses override :meth:`key`; the hooks are optional.  The
    ``job`` objects expose at least ``job_id``, ``tenant``, ``priority``,
    ``partition_size``, ``submit_s``, and ``cost`` (node-seconds of
    expected service, or the partition size when no estimate exists).
    """

    name = "base"

    def on_submit(self, job, now: float) -> None:
        """A job entered the queue at virtual time ``now``."""

    def key(self, job):
        """The job's rank (smaller runs first), static while it queues."""
        raise NotImplementedError

    def order(self, eligible: list, now: float) -> list:
        """Rank the eligible (already-submitted) jobs for this pass."""
        return sorted(eligible, key=self.key)

    def on_start(self, job, now: float) -> None:
        """A job was placed on a partition at virtual time ``now``."""

    def on_finish(self, job, now: float) -> None:
        """A job's partition was released at virtual time ``now``."""


class FifoBackfill(QueuePolicy):
    """Submission order: the PR-4 behavior, extracted verbatim.

    The head of the queue gets the first shot at the free partitions and
    later jobs may start only when an earlier job cannot be placed —
    which is exactly what walking the ranking with skip-on-failure does.
    """

    name = "fifo"

    def key(self, job):
        return job.job_id


class WeightedFairShare(QueuePolicy):
    """Start-time fair queueing over tenants, with strict priorities.

    Each tenant owns a weight; a job's *start tag* is the maximum of the
    global virtual time and its tenant's last finish tag, and its finish
    tag advances the tenant by ``cost / weight``.  Ranking is by
    descending priority, then ascending start tag, then job id — so a
    heavy tenant's backlog cannot starve a light tenant (its tags race
    ahead), while a higher :attr:`~repro.runtime.spec.JobSpec.priority`
    always clears the queue first regardless of tags.

    All state advances through the hooks in virtual time; two runs fed
    the same submission sequence produce the same tags and ranking.
    """

    name = "fair"

    def __init__(self, weights: dict | None = None, *, default_weight: float = 1.0) -> None:
        if default_weight <= 0.0:
            raise ConfigurationError(
                f"default_weight must be > 0, got {default_weight}"
            )
        self.weights = dict(weights or {})
        for tenant, weight in sorted(self.weights.items()):
            if weight <= 0.0:
                raise ConfigurationError(
                    f"tenant {tenant!r} weight must be > 0, got {weight}"
                )
        self.default_weight = default_weight
        self._vtime = 0.0
        self._tenant_finish: dict = {}
        self._tags: dict = {}

    def _weight(self, tenant: str) -> float:
        return self.weights.get(tenant, self.default_weight)

    def on_submit(self, job, now: float) -> None:
        start_tag = max(self._vtime, self._tenant_finish.get(job.tenant, 0.0))
        finish_tag = start_tag + job.cost / self._weight(job.tenant)
        self._tags[job.job_id] = start_tag
        self._tenant_finish[job.tenant] = finish_tag

    def key(self, job):
        return (-job.priority, self._tags.get(job.job_id, 0.0), job.job_id)

    def on_start(self, job, now: float) -> None:
        # Global virtual time tracks the newest start tag placed in
        # service, so tenants idle through a busy spell re-enter at the
        # current front instead of with an ancient (unfairly small) tag.
        self._vtime = max(self._vtime, self._tags.get(job.job_id, 0.0))

    def on_finish(self, job, now: float) -> None:
        self._tags.pop(job.job_id, None)


def make_policy(name: str, *, weights: dict | None = None) -> QueuePolicy:
    """Build a policy by CLI name (``"fifo"`` or ``"fair"``)."""
    if name == "fifo":
        return FifoBackfill()
    if name == "fair":
        return WeightedFairShare(weights)
    raise ConfigurationError(
        f"unknown queue policy {name!r}; use 'fifo' or 'fair'"
    )
