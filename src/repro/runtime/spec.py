"""Job and run descriptions for the runtime layer.

Before this layer existed every driver (``run_spmd_wavelet``,
``run_parallel_nbody``, ``run_parallel_pic``, ``run_with_recovery``, the
CLI, ``perf.bench``) hand-rolled its own machine construction and
threaded the same knobs — machine name, rank count, placement, protocol,
tracing, fault plan, checkpoint interval, kernel — through ad-hoc keyword
arguments.  :class:`RunOptions` consolidates those cross-cutting knobs and
:class:`JobSpec` pairs them with a registered program name plus its
program-specific parameters, so one description can be executed directly
(:func:`repro.runtime.launch`) or submitted to a space-sharing
:class:`~repro.runtime.scheduler.Scheduler`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.machines.engine import Machine

__all__ = ["RunOptions", "JobSpec", "resolve_machine"]

#: Machine names the runtime can build on demand (``resolve_machine``).
MACHINE_NAMES = ("paragon", "t3d", "workstation")


@dataclass(frozen=True)
class RunOptions:
    """Cross-cutting execution knobs shared by every program.

    Parameters
    ----------
    machine:
        Either a pre-built :class:`~repro.machines.engine.Machine` or one
        of the calibrated spec names (``"paragon"``, ``"t3d"``,
        ``"workstation"``).  ``None`` means the caller supplies the
        machine (driver wrappers, scheduler partitions).
    nranks:
        Rank count when the machine is built from a name.
    placement / protocol:
        Forwarded to the Paragon factory (``"snake"``/``"naive"``;
        ``"pvm"``/``"nx"``).  ``protocol=None`` keeps the factory default.
    kernel:
        Wavelet filtering kernel: ``"conv"``, ``"lifting"`` or
        ``"single-loop"`` — anything
        :func:`repro.wavelet.plan.parse_kernel_spec` accepts.  Programs
        that do not filter reject non-default values.
    decomposition:
        Wavelet domain decomposition (``"striped"``/``"block"``).
    collective:
        All-reduce schedule for programs that do global reductions
        (``"rdouble"`` recursive doubling, the default, or
        ``"rabenseifner"`` reduce-scatter + allgather); programs without
        a global reduction reject non-default values.
    record_trace:
        Collect :class:`~repro.machines.engine.TraceEvent` records.
    faults:
        A :class:`~repro.machines.faults.FaultPlan` to run under (the
        executor recovers from injected crashes via checkpoint/restart).
    checkpoint_interval:
        Levels/steps between coordinated checkpoints (0 disables).
    max_restarts:
        Restart budget when ``faults`` injects crashes.
    """

    machine: object = None
    nranks: int = 1
    placement: str = "snake"
    protocol: str | None = None
    kernel: str = "conv"
    decomposition: str = "striped"
    collective: str = "rdouble"
    record_trace: bool = False
    faults: object = None
    checkpoint_interval: int = 0
    max_restarts: int = 8

    def with_updates(self, **changes) -> "RunOptions":
        """A copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class JobSpec:
    """One schedulable job: a registered program plus its inputs.

    ``program`` names a :class:`~repro.runtime.registry.ProgramDef`;
    ``params`` holds that program's own inputs (image, particles, steps,
    ...); ``options`` holds the cross-cutting :class:`RunOptions`;
    ``name`` labels the job in scheduler reports (defaults to the
    program name).

    ``tenant`` and ``priority`` identify the submitting tenant for the
    multi-tenant service layer: the fair-share queue policy
    (:class:`~repro.runtime.policy.WeightedFairShare`) charges the job's
    cost against the tenant's share and ranks strictly by descending
    priority first.  The defaults (anonymous tenant, priority 0) leave
    batch FIFO scheduling untouched.
    """

    program: str
    params: dict = field(default_factory=dict)
    options: RunOptions = field(default_factory=RunOptions)
    name: str = ""
    tenant: str = ""
    priority: int = 0

    @property
    def label(self) -> str:
        """Display name for reports."""
        return self.name or self.program

    def param(self, key, default=None):
        """A program parameter with a default."""
        return self.params.get(key, default)


def resolve_machine(options: RunOptions) -> "Machine":
    """Build (or pass through) the machine an option set describes.

    A :class:`~repro.machines.engine.Machine` instance is returned as-is;
    a name is resolved through the calibrated spec factories with the
    option's ``nranks``/``placement``/``protocol``.
    """
    from repro.machines.engine import Machine

    if isinstance(options.machine, Machine):
        return options.machine
    if options.machine is None:
        raise ConfigurationError(
            "RunOptions.machine is unset; pass a Machine or a spec name "
            f"from {MACHINE_NAMES}"
        )
    name = options.machine
    if name == "paragon":
        from repro.machines.specs import paragon

        kwargs = {"placement": options.placement}
        if options.protocol is not None:
            kwargs["protocol"] = options.protocol
        return paragon(options.nranks, **kwargs)
    if name == "t3d":
        from repro.machines.specs import t3d

        return t3d(options.nranks)
    if name == "workstation":
        from repro.machines.specs import workstation

        return workstation()
    raise ConfigurationError(
        f"unknown machine {name!r}; use a Machine instance or one of {MACHINE_NAMES}"
    )
