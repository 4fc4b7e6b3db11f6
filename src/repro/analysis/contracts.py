"""Pipeline stage access contracts (the RPR011 declaration layer).

The paper's correctness argument for out-of-order dispatch (§4) is an
argument about *state ownership*: renaming and ROB/LSQ allocation stay
in program order because only the rename stage touches the map table
and free lists, the issue queue may leave program order because only
dispatch inserts into it, and so on. This module turns that prose into
one machine-readable declaration per stage::

    @stage_contract("commit",
                    reads=("core", "config", "instr"),
                    writes=("rob", "lsq", "free_list", ...))
    def _commit(self, cycle):  # repro: hot
        ...

and both enforcement layers consume the *same* declaration:

* :mod:`repro.analysis.flow` verifies, statically, that every attribute
  access in the stage's transitive call closure resolves to a declared
  resource (rule RPR011);
* :mod:`repro.analysis.sanitizer` installs shadow wrappers around the
  cached stage callables that fingerprint every *undeclared* resource
  before and after the stage runs and raise on any mutation.

The decorator itself is free at runtime: it attaches the contract to
the function object and returns the function unchanged, so the cycle
loop never sees an extra frame.

This module must stay dependency-free (stdlib only): it is imported by
``repro.pipeline.smt_core`` at the bottom of the pipeline and by the
analysis layer at the top.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Architectural resources a stage contract may name, with the short
#: description used by docs and violation messages.
RESOURCES: dict[str, str] = {
    "iq": "shared issue queue (entries, ready heap, waiter lists)",
    "rob": "per-thread reorder buffers",
    "lsq": "per-thread load/store queues",
    "map_table": "per-thread rename map tables",
    "free_list": "physical register free lists",
    "ready": "physical register ready bits",
    "fu": "functional unit pools",
    "dab": "deadlock-avoidance buffer",
    "watchdog": "deadlock watchdog timer",
    "events": "wakeup/completion event wheels",
    "thread": "ThreadState (fetch index, front-end pipe, dispatch "
              "buffer, icount, stall state)",
    "predictor": "per-thread branch predictors (gshare + BTB)",
    "memory": "cache hierarchy (I/D L1, L2, LRU state)",
    "stats": "PipelineStats counters",
    "instr": "in-flight DynInstr fields",
    "core": "SMTProcessor bookkeeping (seq, cycle, rotations, widths)",
    "config": "frozen MachineConfig knobs",
}

#: Attribute name -> resource. The static pass resolves an attribute
#: chain by scanning its parts left to right and keeping the *last*
#: anchor seen (``ts.rob._entries`` -> rob; ``dones[i].completed`` ->
#: instr), so aggregates hand off to their parts naturally. ``stats``
#: is terminal: ``stats.committed`` is a stats counter, not thread
#: state, so scanning stops there.
ANCHOR_ATTRS: dict[str, str] = {
    # issue queue
    "iq": "iq", "ready_heap": "iq", "waiting": "iq", "occupancy": "iq",
    "occupancy_integral": "iq", "free_slots": "iq",
    # ready bits (shared array, aliased by the IQ as _ready_bits)
    "ready": "ready", "_ready_bits": "ready",
    # ROB / LSQ
    "rob": "rob", "_entries": "rob",
    "lsq": "lsq", "_stores": "lsq",
    # rename state
    "maps": "map_table", "_map": "map_table",
    "int_free": "free_list", "fp_free": "free_list", "_free": "free_list",
    "_base": "free_list",
    # execution resources
    "fu": "fu", "_units": "fu", "issued_per_class": "fu",
    "dab": "dab", "entries": "dab",
    "watchdog": "watchdog",
    "_wake_events": "events", "_done_events": "events",
    # per-thread state
    "threads": "thread", "trace": "thread", "trace_len": "thread",
    "fetch_idx": "thread", "pipe": "thread", "pipe_capacity": "thread",
    "dispatch_buffer": "thread", "icount": "thread",
    "stalled_until": "thread", "wait_branch": "thread",
    "blocked_2op": "thread", "committed": "thread",
    "pending_long_misses": "thread",
    # predictors and memory
    "predictor": "predictor", "gshare": "predictor", "btb": "predictor",
    "hierarchy": "memory", "l1i": "memory", "l1d": "memory", "l2": "memory",
    # statistics (terminal — see above)
    "stats": "stats",
    # core bookkeeping
    "cycle": "core", "_seq": "core", "_last_commit_cycle": "core",
    "_events_fired": "core", "_rotations": "core", "_nrot": "core",
    "policy": "core", "fetch_unit": "core",
    "cfg": "config",
    # in-flight instruction fields (every DynInstr slot)
    "tid": "instr", "seq": "instr", "tseq": "instr", "op": "instr",
    "pc": "instr", "addr": "instr", "taken": "instr", "target": "instr",
    "dest_l": "instr", "src1_l": "instr", "src2_l": "instr",
    "is_load": "instr", "is_store": "instr", "is_branch": "instr",
    "prediction": "instr", "mispredicted": "instr",
    "dest_p": "instr", "old_dest_p": "instr", "src1_p": "instr",
    "src2_p": "instr", "in_iq": "instr", "in_dab": "instr",
    "num_waiting": "instr", "issued": "instr", "completed": "instr",
    "was_ndi_blocked": "instr", "ooo_dispatched": "instr",
    "skipped_ndis": "instr", "ndi_dependent": "instr",
    "fetch_cycle": "instr", "rename_cycle": "instr",
    "dispatch_cycle": "instr", "issue_cycle": "instr",
    "complete_cycle": "instr", "forwarded": "instr", "long_miss": "instr",
}

#: Resources at which chain scanning stops (their attributes are leaf
#: counters, never hand-offs to another structure).
TERMINAL_RESOURCES = frozenset({"stats"})

#: Fallback: methods of these classes operate on this resource when an
#: attribute chain rooted at ``self`` hits no anchor.
CLASS_RESOURCES: dict[str, str] = {
    "SMTProcessor": "core",
    "IssueQueue": "iq",
    "ReorderBuffer": "rob",
    "LoadStoreQueue": "lsq",
    "RenameMapTable": "map_table",
    "FreeList": "free_list",
    "RenameUnit": "core",
    "FunctionalUnitPool": "fu",
    "DeadlockAvoidanceBuffer": "dab",
    "WatchdogTimer": "watchdog",
    "ThreadState": "thread",
    "ThreadPredictor": "predictor",
    "GShare": "predictor",
    "BranchTargetBuffer": "predictor",
    "MemoryHierarchy": "memory",
    "SetAssociativeCache": "memory",
    "FetchUnit": "config",
}

#: Method names that mutate their receiver: a call ``<chain>.m(...)``
#: with ``m`` here is a *write* to the chain's resource. Project
#: methods with observable side effects on their object are listed
#: alongside the stdlib container vocabulary.
MUTATOR_METHODS = frozenset({
    # stdlib containers
    "append", "appendleft", "extend", "insert", "pop", "popleft",
    "remove", "clear", "add", "discard", "update", "setdefault",
    "sort", "reverse",
    # project structures
    "insert_slice", "allocate", "release", "reset", "tick",
    "note_dispatch", "access", "access_data", "access_inst",
    "fill", "predict", "resolve", "flush_inflight",
})

#: Instance-dict stage callable -> contract stage name, in ``step()``
#: call order. ``repro.perf`` wraps exactly these attributes with its
#: timers; the sanitizer wraps them with the contract shadow checks.
STAGE_CALLABLES: dict[str, str] = {
    "_commit": "commit",
    "_apply_events": "writeback",
    "_issue": "issue",
    "_dispatch": "dispatch",
    "_rename": "rename",
    "_fetch_cycle": "fetch",
}

#: Stage name -> contract, populated by :func:`stage_contract` at
#: decoration (i.e. module import) time.
STAGE_CONTRACTS: dict[str, "StageContract"] = {}


@dataclass(frozen=True)
class StageContract:
    """Declared state footprint of one pipeline stage."""

    stage: str
    reads: frozenset[str] = field(default_factory=frozenset)
    writes: frozenset[str] = field(default_factory=frozenset)

    @property
    def may_read(self) -> frozenset[str]:
        """Resources the stage may observe (writes imply reads)."""
        return self.reads | self.writes

    def undeclared(self) -> tuple[str, ...]:
        """Resources the stage must not touch at all (sorted)."""
        allowed = self.may_read
        return tuple(sorted(r for r in RESOURCES if r not in allowed))


def stage_contract(stage: str, *, reads: tuple[str, ...] = (),
                   writes: tuple[str, ...] = ()):
    """Declare a pipeline stage's access contract.

    Attaches a :class:`StageContract` to the function as
    ``__stage_contract__``, registers it in :data:`STAGE_CONTRACTS`,
    and returns the function unchanged — zero runtime overhead.
    """
    if stage not in set(STAGE_CALLABLES.values()):
        raise ValueError(f"unknown pipeline stage {stage!r}")
    unknown = (set(reads) | set(writes)) - set(RESOURCES)
    if unknown:
        raise ValueError(
            f"stage {stage!r} names unknown resource(s) "
            f"{sorted(unknown)}; declare them in contracts.RESOURCES"
        )
    contract = StageContract(
        stage=stage, reads=frozenset(reads), writes=frozenset(writes)
    )

    def decorate(fn):
        fn.__stage_contract__ = contract
        STAGE_CONTRACTS[stage] = contract
        return fn

    return decorate
