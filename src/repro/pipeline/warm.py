"""Warm microarchitectural state: built once per key, restored per core.

The paper measures SimPoint regions from warm caches and predictors;
this repo stands in for that with a residency install plus a functional
warmup replay (DESIGN.md §2, "Warmup"). The state
that replay leaves behind depends only on the traces in slot order, the
memory and branch-predictor configs and the warmup length. It does not
depend on the scheduler, the IQ size or any other core parameter, so a
grid over schedulers and IQ sizes shares it across every point.

:func:`build` is the only code that warms anything: it replays into
scratch structures, never a core's, and freezes the result into an
immutable :class:`WarmState`. :func:`restore` copies a snapshot into a freshly
constructed core. :data:`STORE` keeps the snapshots of content-keyed
traces (those made by :func:`repro.trace.generator.generate_trace`), so
every core with the same key after the first pays for a copy instead of
a replay. ``clear_trace_cache()`` empties it along with the trace memo.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

from repro.branch.predictor import ThreadPredictor
from repro.config.machine import MachineConfig
from repro.isa.opcodes import OpClass
from repro.memory.hierarchy import MemoryHierarchy
from repro.trace.generator import Trace

#: Snapshot bound. Measured with tracemalloc on the paper machine, a
#: snapshot retains 0.03-0.10 MB with one thread and 0.09-0.13 MB with
#: two to four (the shared L2 tag store dominates; each thread adds its
#: BTB), so a full store holds at most ~4.5 MB. 32 holds the 12 mix
#: states plus the up-to-20 single-thread baseline states of one pass
#: of a 2-thread, 12-mix figure sweep.
STORE_BOUND = 32

_BRANCH = int(OpClass.BRANCH)
_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)

#: A set-associative structure's sets, MRU first: every set's entries
#: concatenated in set order, and each set's length.
FrozenSets = tuple[tuple, tuple[int, ...]]


@dataclass(frozen=True, slots=True)
class WarmState:
    """Post-warmup tag stores, predictor tables and fetch position.

    Every field is immutable (tuples, ``bytes``, ints), so one snapshot
    can be restored into any number of cores without aliasing.
    """

    l1i: FrozenSets
    l1d: FrozenSets
    l2: FrozenSets
    #: per thread: (gshare counter table, global history)
    gshare: tuple[tuple[bytes, int], ...]
    #: per thread: BTB sets of (tag, target) entries
    btb: tuple[FrozenSets, ...]
    fetch_idx: int


def build(cfg: MachineConfig, traces: Sequence[Trace],
          warmup: int) -> WarmState:
    """Warm a fresh hierarchy and one fresh predictor per trace, and
    snapshot the result.

    Residency pre-touches each trace's steady-state lines (code and
    data; see ``Trace.warm_addrs``) so reduced-scale simulations do not
    start from all-cold caches. A functional replay of the first
    ``warmup`` instructions of each thread then stands in for the
    paper's SimPoint fast-forward: at the reduced instruction budgets of
    a pure-Python reproduction, cold predictors and caches would
    otherwise dominate every number.
    """
    hierarchy = MemoryHierarchy(cfg.mem)
    predictors = [ThreadPredictor(cfg.bp) for _ in traces]
    for trace in traces:
        hierarchy.warm_inst(trace.warm_pcs)
        hierarchy.warm_data(trace.warm_addrs)
    line_shift = cfg.mem.l1i.line_bytes.bit_length() - 1
    for trace, predictor in zip(traces, predictors):
        _replay(trace, predictor, hierarchy, warmup, line_shift)
    return snapshot(hierarchy, predictors, warmup)


def _replay(trace: Trace, predictor: ThreadPredictor,
            hierarchy: MemoryHierarchy, warmup: int,
            line_shift: int) -> None:  # repro: hot
    """Functionally execute the first ``warmup`` instructions of one
    thread: one icache access per new line, every branch predicted and
    trained, every load and store through the data caches."""
    access_inst = hierarchy.access_inst
    access_data = hierarchy.access_data
    predict = predictor.predict
    resolve = predictor.resolve
    ops = trace.op
    pcs = trace.pc
    taken = trace.taken
    target = trace.target
    addrs = trace.addr
    last_block = -1
    for i in range(warmup):
        pc = pcs[i]
        block = pc >> line_shift
        if block != last_block:
            access_inst(pc)
            last_block = block
        op = ops[i]
        if op == _BRANCH:
            resolve(pc, taken[i], target[i],
                    predict(pc, taken[i], target[i]))
        elif op == _LOAD or op == _STORE:
            access_data(addrs[i])


def snapshot(hierarchy: MemoryHierarchy,
             predictors: Sequence[ThreadPredictor],
             fetch_idx: int) -> WarmState:
    """Freeze the tag stores and predictor tables into a
    :class:`WarmState`; :func:`restore` is its inverse."""
    return WarmState(
        l1i=_freeze(hierarchy.l1i._sets),
        l1d=_freeze(hierarchy.l1d._sets),
        l2=_freeze(hierarchy.l2._sets),
        gshare=tuple(
            (bytes(p.gshare._table), p.gshare._history) for p in predictors
        ),
        btb=tuple(_freeze(p.btb._sets) for p in predictors),
        fetch_idx=fetch_idx,
    )


def restore(core, state: WarmState) -> None:
    """Copy ``state`` into a freshly constructed core.

    Copies in place: every container the core already owns keeps its
    identity, and nothing the core can mutate is shared with the
    snapshot. Access and prediction counters are untouched, so they
    cover the measured region only.
    """
    hierarchy = core.hierarchy
    for sets, frozen in ((hierarchy.l1i._sets, state.l1i),
                         (hierarchy.l1d._sets, state.l1d),
                         (hierarchy.l2._sets, state.l2)):
        _thaw(sets, frozen)
    for ts, (table, history), btb in zip(core.threads, state.gshare,
                                         state.btb):
        gshare = ts.predictor.gshare
        gshare._table[:] = table
        gshare._history = history
        _thaw(ts.predictor.btb._sets, btb)
        ts.fetch_idx = state.fetch_idx


def _freeze(sets: list[list]) -> FrozenSets:
    return tuple(chain.from_iterable(sets)), tuple(map(len, sets))


def _thaw(sets: list[list], frozen: FrozenSets) -> None:
    """Fill a fresh structure's (empty) set lists from a snapshot.

    Fills the lists the structure already owns, and the snapshot keeps
    one flat tuple per structure rather than one per set, so neither a
    snapshot nor a restore leaves new container objects alive for the
    garbage collector to track.
    """
    ways_flat, sizes = frozen
    i = 0
    for ways, n in zip(sets, sizes):
        if n:
            ways[:] = ways_flat[i:i + n]
            i += n


class WarmStore:
    """Bounded FIFO of snapshots keyed by content.

    The key is (each trace's content key in slot order, ``cfg.mem``,
    ``cfg.bp``, warmup). Traces without a content key (built by hand
    rather than by ``generate_trace``) are warmed fresh every time and
    never stored. ``builds`` and ``hits`` count since the last clear.

    A serve worker runs jobs on a thread pool, so every lookup, build
    and insert holds the store's lock; threads asking for one key build
    it once.
    """

    __slots__ = ("_states", "_lock", "bound", "builds", "hits")

    def __init__(self, bound: int) -> None:
        self._states: dict[tuple, WarmState] = {}
        self._lock = threading.Lock()
        self.bound = bound
        self.builds = 0
        self.hits = 0

    def __len__(self) -> int:
        return len(self._states)

    def get(self, cfg: MachineConfig, traces: Sequence[Trace],
            warmup: int) -> WarmState:
        """The snapshot for this key, built and stored on a miss."""
        keys = tuple(t.key for t in traces)
        key = None if None in keys else (keys, cfg.mem, cfg.bp, warmup)
        with self._lock:
            state = self._states.get(key)
            if state is not None:
                self.hits += 1
                return state
            state = build(cfg, traces, warmup)
            self.builds += 1
            if key is not None:
                if len(self._states) >= self.bound:
                    del self._states[next(iter(self._states))]
                self._states[key] = state
        return state

    def clear(self) -> None:
        """Drop every snapshot and zero the counters."""
        with self._lock:
            self._states.clear()
            self.builds = 0
            self.hits = 0


#: The process-wide snapshot store (see :class:`WarmStore`).
STORE = WarmStore(STORE_BOUND)
