"""Central message-tag allocation registry.

Every point-to-point tag in the repository is allocated here, through one
:class:`TagRegistry`, instead of being hand-numbered in the module that
uses it.  The registry enforces, at import time, that no two allocations
share a value and that no allocation lands inside a reserved range (the
collectives block at 900k and the reliable-transport data/ack blocks at
950k/975k).  The static linter (:mod:`repro.analysis`) resolves the
symbolic names at ``ctx.send``/``ctx.recv`` call sites back to these
values and re-verifies the same invariant across modules, so a tag
collision is caught twice: once when the interpreter first imports this
module, and once per lint run over source that may not even be imported.

The concrete numbers are frozen: they predate the registry (they were
module-local ``_TAG_*`` constants) and the byte-exact trace/digest pins in
``tests/test_runtime_compat.py`` depend on them.  Allocate new tags in the
gaps (16-20, 22-30, 37+) below :data:`USER_TAG_CEILING`; never renumber an
existing one.

Layout
------

==============  =======================================================
1-11            2-D wavelet SPMD (striped/block), reconstruction, 1-D
                transform, N-body manager-worker update
12-15           single-loop sweep raw-tile guard exchanges (striped
                row guards, block column + extended-row guards)
21              PIC final particle collection
31-35           lifting front- and back-guard exchanges (opposite
                direction to the conv guards)
36              adversarial spam-flood junk channel
                (:mod:`repro.scenarios.adversary`)
900_001-900_012 collectives (:mod:`repro.machines.api`)
950k/975k       reliable-transport data/ack blocks
                (:mod:`repro.machines.faults.transport`)
==============  =======================================================
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = [
    "TagRange",
    "TagRegistry",
    "REGISTRY",
    "USER_TAG_CEILING",
    "verify_collision_free",
    "protocol_kind",
    "GuardRole",
    "GUARD_ROLES",
    # wavelet 2-D SPMD decomposition
    "WAVELET_DISTRIBUTE",
    "WAVELET_ROW_GUARD",
    "WAVELET_COL_GUARD",
    "WAVELET_COLLECT",
    "WAVELET_COL_GUARD_FRONT",
    "WAVELET_ROW_GUARD_FRONT",
    "WAVELET_SWEEP_GUARD",
    "WAVELET_SWEEP_GUARD_FRONT",
    "WAVELET_SWEEP_COL_GUARD",
    "WAVELET_SWEEP_COL_GUARD_FRONT",
    # wavelet 2-D SPMD reconstruction
    "RECONSTRUCT_DISTRIBUTE",
    "RECONSTRUCT_GUARD",
    "RECONSTRUCT_COLLECT",
    "RECONSTRUCT_GUARD_BACK",
    # wavelet 1-D SPMD transform
    "DWT1D_DISTRIBUTE",
    "DWT1D_GUARD",
    "DWT1D_COLLECT",
    "DWT1D_GUARD_FRONT",
    "DWT1D_GUARD_BACK",
    # applications
    "NBODY_UPDATE",
    "PIC_FINAL",
    # adversarial scenarios
    "ADVERSARY_SPAM",
    # engine rank-scaling benchmark
    "ENGINE_BENCH_TAG_BASE",
    # collectives
    "COLLECTIVE_TAG_BASE",
    "COLLECTIVE_BCAST",
    "COLLECTIVE_REDUCE",
    "COLLECTIVE_ALLREDUCE",
    "COLLECTIVE_GSSUM",
    "COLLECTIVE_GATHER",
    "COLLECTIVE_SCATTER",
    "COLLECTIVE_BARRIER",
    "COLLECTIVE_ALLGATHER",
    "COLLECTIVE_ALLTOALL",
    "COLLECTIVE_SENDRECV",
    "COLLECTIVE_RABENSEIFNER",
    "COLLECTIVE_BCAST_TREE",
    # reliable transport
    "TRANSPORT_DATA_BASE",
    "TRANSPORT_ACK_BASE",
    "TRANSPORT_TAG_SPAN",
]


@dataclass(frozen=True)
class TagRange:
    """A reserved half-open block ``[start, stop)`` of tag values.

    ``protocol`` classifies the matching discipline of the owning layer
    for the symbolic protocol verifier (:mod:`repro.analysis.protocol`):
    ``"app"`` tags are matched at program level; ``"collective"``,
    ``"paired"`` (ack'd transport) and ``"fan-in"`` traffic is matched by
    its own layer and exempt from program-level send/recv pairing.
    ``partner_shift`` records, for paired ranges, the constant offset to
    the partner block (data→ack and back) so the inversion is checkable.
    """

    name: str
    start: int
    stop: int
    protocol: str = "app"
    partner_shift: int | None = None

    def __contains__(self, value: object) -> bool:
        return isinstance(value, int) and self.start <= value < self.stop


class TagRegistry:
    """Collision-checked allocator for message-tag integers.

    ``allocate(name, value)`` records a single tag; ``reserve_range``
    records a block owned by one subsystem (collectives, transport).
    Both raise :class:`~repro.errors.ConfigurationError` on any overlap,
    so a bad allocation fails at import time, before a program can run
    with an ambiguous tag.
    """

    def __init__(self) -> None:
        self._by_name: dict[str, int] = {}
        self._by_value: dict[int, str] = {}
        self._ranges: list[TagRange] = []

    def allocate(self, name: str, value: int) -> int:
        """Register ``name -> value``; returns ``value`` for assignment."""
        if value < 0:
            raise ConfigurationError(f"tag {name!r} must be >= 0, got {value}")
        if name in self._by_name:
            raise ConfigurationError(f"tag name {name!r} already allocated")
        owner = self._by_value.get(value)
        if owner is not None:
            raise ConfigurationError(
                f"tag collision: {name!r} wants {value}, already owned by {owner!r}"
            )
        for block in self._ranges:
            if value in block:
                raise ConfigurationError(
                    f"tag collision: {name!r} wants {value}, inside reserved "
                    f"range {block.name!r} [{block.start}, {block.stop})"
                )
        self._by_name[name] = value
        self._by_value[value] = name
        return value

    def reserve_range(
        self,
        name: str,
        start: int,
        stop: int,
        *,
        protocol: str = "app",
        partner_shift: int | None = None,
    ) -> TagRange:
        """Reserve the block ``[start, stop)`` for one subsystem."""
        if not 0 <= start < stop:
            raise ConfigurationError(
                f"range {name!r} must satisfy 0 <= start < stop, got [{start}, {stop})"
            )
        for block in self._ranges:
            if start < block.stop and block.start < stop:
                raise ConfigurationError(
                    f"range collision: {name!r} [{start}, {stop}) overlaps "
                    f"{block.name!r} [{block.start}, {block.stop})"
                )
        for value, owner in self._by_value.items():
            if start <= value < stop:
                raise ConfigurationError(
                    f"range collision: {name!r} [{start}, {stop}) covers tag "
                    f"{value} owned by {owner!r}"
                )
        block = TagRange(name, start, stop, protocol, partner_shift)
        self._ranges.append(block)
        return block

    def name_of(self, value: int) -> str | None:
        """Symbolic name owning ``value`` (range names for range members)."""
        name = self._by_value.get(value)
        if name is not None:
            return name
        for block in self._ranges:
            if value in block:
                return block.name
        return None

    def value_of(self, name: str) -> int:
        """Value allocated to ``name`` (KeyError if unknown)."""
        return self._by_name[name]

    def all_tags(self) -> dict[str, int]:
        """Every individual allocation, sorted by value."""
        return dict(sorted(self._by_name.items(), key=lambda kv: kv[1]))

    def ranges(self) -> tuple[TagRange, ...]:
        """Every reserved range, in registration order."""
        return tuple(self._ranges)

    def verify(self) -> None:
        """Re-assert the collision-free invariant over the current state.

        ``allocate``/``reserve_range`` already enforce it incrementally;
        this is the belt-and-braces whole-table check the linter and the
        test suite call.
        """
        seen: dict[int, str] = {}
        for name, value in self._by_name.items():
            if value in seen:
                raise ConfigurationError(
                    f"tag collision: {name!r} and {seen[value]!r} share {value}"
                )
            seen[value] = name
            for block in self._ranges:
                if value in block:
                    raise ConfigurationError(
                        f"tag {name!r} ({value}) inside reserved range {block.name!r}"
                    )
        for i, a in enumerate(self._ranges):
            for b in self._ranges[i + 1 :]:
                if a.start < b.stop and b.start < a.stop:
                    raise ConfigurationError(
                        f"range collision: {a.name!r} overlaps {b.name!r}"
                    )
        # Paired ranges must invert: shifting a paired block by its
        # partner_shift must land exactly on another paired block whose
        # shift points back.
        for block in self._ranges:
            if block.partner_shift is None:
                continue
            partner = next(
                (
                    other
                    for other in self._ranges
                    if other.start == block.start + block.partner_shift
                    and other.stop == block.stop + block.partner_shift
                ),
                None,
            )
            if partner is None or partner.partner_shift != -block.partner_shift:
                raise ConfigurationError(
                    f"paired range {block.name!r} has no inverse partner at "
                    f"shift {block.partner_shift:+d}"
                )


#: The process-wide registry all repro tags are allocated from.
REGISTRY = TagRegistry()

#: User point-to-point tags must stay below this (collectives and the
#: reliable transport own everything above).
USER_TAG_CEILING = 900_000

# -- 2-D wavelet SPMD decomposition (repro.wavelet.parallel.spmd) ----------
WAVELET_DISTRIBUTE = REGISTRY.allocate("wavelet.spmd.distribute", 1)
WAVELET_ROW_GUARD = REGISTRY.allocate("wavelet.spmd.row_guard", 2)
WAVELET_COL_GUARD = REGISTRY.allocate("wavelet.spmd.col_guard", 3)
WAVELET_COLLECT = REGISTRY.allocate("wavelet.spmd.collect", 4)

# -- 2-D wavelet SPMD reconstruction (repro.wavelet.parallel.spmd_reconstruct)
RECONSTRUCT_DISTRIBUTE = REGISTRY.allocate("wavelet.reconstruct.distribute", 5)
RECONSTRUCT_GUARD = REGISTRY.allocate("wavelet.reconstruct.guard", 6)
RECONSTRUCT_COLLECT = REGISTRY.allocate("wavelet.reconstruct.collect", 7)

# -- 1-D wavelet SPMD transform (repro.wavelet.parallel.spmd_1d) -----------
DWT1D_DISTRIBUTE = REGISTRY.allocate("wavelet.dwt1d.distribute", 8)
DWT1D_GUARD = REGISTRY.allocate("wavelet.dwt1d.guard", 9)
DWT1D_COLLECT = REGISTRY.allocate("wavelet.dwt1d.collect", 10)

# -- single-loop sweep guard exchanges (repro.wavelet.parallel.spmd) -------
# The monolithic sweep exchanges guards of the *raw* tile before any
# arithmetic (there are no per-pass intermediates to exchange): row
# guards for the striped program, column guards plus guards of the
# horizontally-extended tile (so corner data flows through neighbors)
# for the block program.
WAVELET_SWEEP_GUARD = REGISTRY.allocate("wavelet.spmd.sweep_guard", 12)
WAVELET_SWEEP_GUARD_FRONT = REGISTRY.allocate("wavelet.spmd.sweep_guard_front", 13)
WAVELET_SWEEP_COL_GUARD = REGISTRY.allocate("wavelet.spmd.sweep_col_guard", 14)
WAVELET_SWEEP_COL_GUARD_FRONT = REGISTRY.allocate(
    "wavelet.spmd.sweep_col_guard_front", 15
)

# -- applications ----------------------------------------------------------
NBODY_UPDATE = REGISTRY.allocate("nbody.update", 11)
PIC_FINAL = REGISTRY.allocate("pic.final", 21)

# -- lifting opposite-direction guard exchanges (31+ convention) -----------
WAVELET_COL_GUARD_FRONT = REGISTRY.allocate("wavelet.spmd.col_guard_front", 31)
WAVELET_ROW_GUARD_FRONT = REGISTRY.allocate("wavelet.spmd.row_guard_front", 32)
DWT1D_GUARD_FRONT = REGISTRY.allocate("wavelet.dwt1d.guard_front", 33)
DWT1D_GUARD_BACK = REGISTRY.allocate("wavelet.dwt1d.guard_back", 34)
RECONSTRUCT_GUARD_BACK = REGISTRY.allocate("wavelet.reconstruct.guard_back", 35)

# -- adversarial scenarios (repro.scenarios.adversary) ---------------------
# Spam-flood junk lands on its own channel so a concrete-tag receive can
# never match it: the flood burns wire time and mailbox space only.
ADVERSARY_SPAM = REGISTRY.allocate("scenarios.adversary.spam", 36)

# -- collectives (repro.machines.api) --------------------------------------
COLLECTIVE_TAG_BASE = 900_000
_COLLECTIVES_RANGE = REGISTRY.reserve_range(
    "collectives", COLLECTIVE_TAG_BASE, COLLECTIVE_TAG_BASE + 50_000, protocol="collective"
)
COLLECTIVE_BCAST = COLLECTIVE_TAG_BASE + 1
COLLECTIVE_REDUCE = COLLECTIVE_TAG_BASE + 2
COLLECTIVE_ALLREDUCE = COLLECTIVE_TAG_BASE + 3
COLLECTIVE_GSSUM = COLLECTIVE_TAG_BASE + 4
COLLECTIVE_GATHER = COLLECTIVE_TAG_BASE + 5
COLLECTIVE_SCATTER = COLLECTIVE_TAG_BASE + 6
COLLECTIVE_BARRIER = COLLECTIVE_TAG_BASE + 7
COLLECTIVE_ALLGATHER = COLLECTIVE_TAG_BASE + 8
COLLECTIVE_ALLTOALL = COLLECTIVE_TAG_BASE + 9
COLLECTIVE_SENDRECV = COLLECTIVE_TAG_BASE + 10
COLLECTIVE_RABENSEIFNER = COLLECTIVE_TAG_BASE + 11
COLLECTIVE_BCAST_TREE = COLLECTIVE_TAG_BASE + 12

# -- engine rank-scaling benchmark (repro.perf.engine_bench) ---------------
# The collect-stage workload ships one message per sub-band under its own
# tag; reserving the small range keeps those tags collision-checked against
# every program tag and the collective/transport bands.
ENGINE_BENCH_TAG_BASE = 880_000
_ENGINE_BENCH_RANGE = REGISTRY.reserve_range(
    "bench.engine.collect", ENGINE_BENCH_TAG_BASE, ENGINE_BENCH_TAG_BASE + 16, protocol="fan-in"
)

# -- reliable transport (repro.machines.faults.transport) ------------------
TRANSPORT_TAG_SPAN = 25_000
TRANSPORT_DATA_BASE = 950_000
TRANSPORT_ACK_BASE = 975_000
_TRANSPORT_DATA_RANGE = REGISTRY.reserve_range(
    "faults.transport.data",
    TRANSPORT_DATA_BASE,
    TRANSPORT_DATA_BASE + TRANSPORT_TAG_SPAN,
    protocol="paired",
    partner_shift=TRANSPORT_ACK_BASE - TRANSPORT_DATA_BASE,
)
_TRANSPORT_ACK_RANGE = REGISTRY.reserve_range(
    "faults.transport.ack",
    TRANSPORT_ACK_BASE,
    TRANSPORT_ACK_BASE + TRANSPORT_TAG_SPAN,
    protocol="paired",
    partner_shift=TRANSPORT_DATA_BASE - TRANSPORT_ACK_BASE,
)


def protocol_kind(value: int) -> str:
    """Matching discipline owning a tag value: ``"app"`` for program-level
    tags, else the reserved range's protocol classification."""
    for block in REGISTRY.ranges():
        if value in block:
            return block.protocol
    return "app"


@dataclass(frozen=True)
class GuardRole:
    """Which side of a wavelet guard exchange a tag carries, per phase.

    The protocol verifier compares the payload row/sample count of a send
    on one of these tags against the kernel plan's
    ``analysis_guard_depths`` / ``synthesis_guard_depths``.  ``None``
    means the tag plays no role in that phase.
    """

    analysis: str | None = None  # "front" | "back"
    synthesis: str | None = None


#: Guard-exchange role of every wavelet guard tag.  Back guards flow to
#: the preceding rank (conv consumes rows *after* the tile); front guards
#: flow to the following rank (lifting/synthesis margins).  DWT1D_GUARD
#: is phase-overloaded: the forward transform ships the back guard on it,
#: the inverse ships the front guard.
GUARD_ROLES: dict[int, GuardRole] = {
    WAVELET_ROW_GUARD: GuardRole(analysis="back"),
    WAVELET_COL_GUARD: GuardRole(analysis="back"),
    WAVELET_SWEEP_GUARD: GuardRole(analysis="back"),
    WAVELET_SWEEP_GUARD_FRONT: GuardRole(analysis="front"),
    WAVELET_SWEEP_COL_GUARD: GuardRole(analysis="back"),
    WAVELET_SWEEP_COL_GUARD_FRONT: GuardRole(analysis="front"),
    WAVELET_COL_GUARD_FRONT: GuardRole(analysis="front"),
    WAVELET_ROW_GUARD_FRONT: GuardRole(analysis="front"),
    DWT1D_GUARD: GuardRole(analysis="back", synthesis="front"),
    DWT1D_GUARD_FRONT: GuardRole(analysis="front"),
    DWT1D_GUARD_BACK: GuardRole(synthesis="back"),
    RECONSTRUCT_GUARD: GuardRole(synthesis="front"),
    RECONSTRUCT_GUARD_BACK: GuardRole(synthesis="back"),
}


def verify_collision_free() -> None:
    """Assert the whole registry is collision-free (linter/test hook)."""
    REGISTRY.verify()
    for name, value in REGISTRY.all_tags().items():
        if value >= USER_TAG_CEILING:
            raise ConfigurationError(
                f"user tag {name!r} ({value}) at or above the "
                f"collective/transport ceiling {USER_TAG_CEILING}"
            )


# Import-time assertion: a collision anywhere above raises before any
# program can run with an ambiguous tag.
verify_collision_free()
