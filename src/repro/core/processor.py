"""In-order core timing model.

Each processor interprets one workload thread (a generator of operations,
see :mod:`repro.core.ops`) against the memory hierarchy, charging every
femtosecond of its execution to one of the four components of the paper's
execution-time breakdown (Figure 2):

* **useful** — computation, instruction issue for loads/stores, fetch and
  other non-memory pipeline stalls (including I-cache misses),
* **sync** — locks, barriers, task-queue contention, waiting for DMA,
* **load** — stalls for demand load misses (in-order cores block on loads),
* **store** — stalls when the store buffer is full.

Cores run ahead of the global clock in quanta of ``quantum_cycles`` and
then yield to the event queue, which keeps the occupancy-based contention
model honest without per-cycle lockstep.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Any, Iterator

from repro.core.sync import (
    BARRIER_OVERHEAD_CYCLES,
    LOCK_OVERHEAD_CYCLES,
    TASK_POP_OVERHEAD_CYCLES,
)
from repro.mem.coherence import MesiState
from repro.sim.fastpath import fastpath_enabled
from repro.sim.kernel import SimulationError
from repro.units import ns_to_fs

if TYPE_CHECKING:
    from repro.core.system import CmpSystem

#: Fetch stall per instruction-cache miss: an L2 round trip.
ICACHE_MISS_PENALTY_NS = 12.0

#: Iterations a phase or stream spills per chunk back into plain replays
#: when it cannot retire in closed form (reference mode, an ineligible
#: phase, a schedule-gated slice, a non-resident line).  Bounds the
#: pending list while keeping the re-dispatch overhead amortized.
SPILL_CHUNK = 64

#: Smallest slice worth retiring in closed form.  Below this, the phase
#: arm's own per-slice cost (schedule gate, queue peek, residency scan,
#: renewal arithmetic) exceeds what retiring saves over the block
#: interpreter, so the slice spills instead.  Multi-core
#: barrier-lockstep runs sit permanently in this regime — foreign
#: events land within an iteration's cost of each other — and degrade
#: gracefully to block-interpreter speed.
PHASE_MIN_RETIRE = 4

#: Block dispatches that skip the per-op inline L1 pre-probe after one
#: full dispatch of the template observed zero inline hits (the probe
#: then only doubles the miss path's lookups), before probing one
#: dispatch again in case residency returned.  Wall-clock only: the
#: walker retires a hit bit-identically to the inline probe.
BLK_COLD_SKIP = 15


def _limit_after_phase(start_fs: int, limit_fs: int, cycle_fs: int,
                       quantum_fs: int, iter_prefix: tuple,
                       iter_cycles: int, iters: int) -> int:
    """Quantum limit after ``iters`` closed-form phase iterations.

    Per-op execution checks ``now >= limit`` after *every* op and, with
    the queue head beyond the core's clock, renews ``limit = now +
    quantum``.  The closed form must leave the same limit so quantum
    boundaries stay aligned with per-op execution for the rest of the
    thread.  Op boundaries sit at ``start + (k * iter_cycles +
    iter_prefix[i]) * cycle_fs`` for iteration ``k``, so each renewal
    resolves its target boundary by splitting the cumulative cycle count
    into (iteration, residue) and bisecting the residue into one
    iteration's prefix sums.  The loop runs once per quantum renewal —
    O(total cycles / quantum), independent of the iteration count — and
    relies on the caller having proved that every renewal inside the
    phase succeeds (queue head beyond the retired prefix, or no boundary
    reaching the old limit at all).
    """
    total = iters * iter_cycles
    while True:
        need = -(-(limit_fs - start_fs) // cycle_fs)
        if need > total:
            return limit_fs
        iteration, residue = divmod(need, iter_cycles)
        if residue:
            boundary = (iteration * iter_cycles
                        + iter_prefix[bisect_left(iter_prefix, residue)])
        else:
            # ``need`` lands exactly on an iteration boundary, which is
            # the previous iteration's final op boundary.
            boundary = need
        limit_fs = start_fs + boundary * cycle_fs + quantum_fs


class Processor:
    """One in-order core executing one workload thread."""

    def __init__(self, core_id: int, system: "CmpSystem",
                 thread: Iterator[tuple]) -> None:
        self.core_id = core_id
        self.system = system
        self.sim = system.sim
        self.hierarchy = system.hierarchy
        config = system.config
        self.cycle_fs = config.core.cycle_fs
        self._quantum_fs = config.quantum_cycles * self.cycle_fs
        self._line_shift = config.line_bytes.bit_length() - 1
        self._line_bytes = config.line_bytes
        self._imiss_fs = ns_to_fs(ICACHE_MISS_PENALTY_NS)
        self._dma_setup_cycles = config.stream.dma_setup_instructions
        self._gen = thread
        self._send_value: Any = None
        self._dma_tags: dict[int, int] = {}
        self._local_store = getattr(system.hierarchy, "local_stores", None)
        self._dma_engine = None
        engines = getattr(system.hierarchy, "dma_engines", None)
        if engines is not None:
            self._dma_engine = engines[core_id]
        #: Execution mode (see :mod:`repro.sim.fastpath`), read at
        #: construction so one system runs one mode throughout.  Off is
        #: the reference mode: one event per quantum, and every block,
        #: phase and stream materialized back into the plain per-op
        #: stream.
        self._fastpath = fastpath_enabled()
        #: Ops spilled from a descriptor (materialized remainder after a
        #: mid-block yield, or a whole block in the reference mode),
        #: consumed LIFO before the generator is consulted again.
        self._pending: list[tuple] = []
        #: Per-template cold verdicts: id(blk) -> dispatches left to
        #: skip the inline L1 pre-probe (see :data:`BLK_COLD_SKIP`).
        self._blk_verdicts: dict[int, int] = {}
        # Clock and accounting (all femtoseconds)
        self.now = 0
        self.useful_fs = 0
        self.sync_fs = 0
        self.load_stall_fs = 0
        self.store_stall_fs = 0
        self.instructions = 0
        self.word_accesses = 0
        self.local_accesses = 0
        self.icache_misses = 0
        #: Iterations retired by the phase closed form (mode-dependent
        #: diagnostic) and total iterations dispatched as phases
        #: (mode-independent: counted once whether retired or spilled).
        self.phase_iters = 0
        self.phase_iters_total = 0
        #: Total iterations dispatched as streams (every mode
        #: materializes them in chunks; see the ``"strm"`` arm).
        self.stream_iters_total = 0
        self.done = False
        self.finish_fs = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Schedule the core's first execution event at time zero."""
        self.sim.at(0, self._step)

    def wake(self, release_fs: int) -> None:
        """Called by a sync primitive to resume a suspended core."""
        if release_fs < self.now:
            release_fs = self.now
        self.sync_fs += release_fs - self.now
        self.now = release_fs
        self.sim.at(release_fs, self._step)

    def _step(self) -> None:
        self._run()

    # ------------------------------------------------------------------
    # Interpreter
    # ------------------------------------------------------------------

    def _run(self) -> None:
        """Interpret operations until suspension, quantum expiry, or the end.

        This is the simulator's single hottest loop, and it is written
        accordingly: the local clock and every per-op counter live in
        local variables (flushed back to the object in one place),
        bound methods are hoisted out of the loop, and — with the fast
        path enabled — two classes of event-queue round trips disappear:

        * **Guaranteed L1 hits** are retired inline (LRU touch + counter)
          without calling into the hierarchy walker.  A line that is
          absent, still in flight (``ready_fs``), or carrying a prefetch
          tag takes the ordinary walker path, so every stat and timestamp
          is bit-identical.
        * **Quantum expiry** only re-enters the event queue when another
          event is pending at or before the core's local clock.  When the
          queue is empty or its head lies in this core's future, the
          kernel would pop this core's own resume event next with nothing
          in between, so eliding the yield cannot change the interleaving
          of shared-resource acquisitions — the core just keeps running
          (run-until-miss/sync/boundary) with a renewed quantum.

        ``REPRO_FASTPATH=0`` disables both, and every descriptor below,
        restoring the seed's one-event-per-quantum execution; per-access
        side channels (trace hooks, invariant observers) disable the
        inline-hit path alone.

        * **Op blocks** (``"blk"``) are immutable templates the workload
          yields once per loop iteration (see :func:`repro.core.ops.block`).
          A block of compute / L1 / local-store ops runs through a tight
          per-op loop (no generator round trips), spilling its
          unexecuted remainder into ``self._pending`` if the quantum
          expires mid-block; a template seen cold skips the inline L1
          probe for :data:`BLK_COLD_SKIP` dispatches.  The reference
          mode, or any block carrying DMA / prefetch / flush ops,
          materializes the block back into plain tuples handled by the
          arms above.
        * **Op phases** (``"ph"``) are the tier above blocks (see
          :func:`repro.core.ops.phase`): a run of K constant-stride block
          iterations yielded as one descriptor.  When every line of
          whole iterations is a guaranteed inline hit, the phase arm
          retires as many as the quantum/queue horizon allows in a
          single arithmetic step — counters as ``K x per_iteration``
          sums, LRU/stored state via the block geometry evaluated per
          iteration shift, the renewal schedule via
          :func:`_limit_after_phase`.  Everything else (an ineligible
          descriptor, a schedule-gated slice, the first non-resident
          iteration, and every phase in the reference mode) spills a
          chunk of :data:`SPILL_CHUNK` block replays.
        * **Op streams** (``"strm"``, see :func:`repro.core.ops.stream`)
          materialize in chunks of :data:`SPILL_CHUNK` iterations into
          the plain DMA / block / local-store ops, in every mode.
        """
        gen_send = self._gen.send
        cycle_fs = self.cycle_fs
        hierarchy = self.hierarchy
        load_line = hierarchy.load_line
        store_line = hierarchy.store_line
        core_id = self.core_id
        line_shift = self._line_shift
        line_mask = self._line_bytes - 1
        quantum_fs = self._quantum_fs
        fastpath = self._fastpath
        fast_mem = fastpath and hierarchy.fastpath_safe
        pending = self._pending
        verdicts = self._blk_verdicts
        # Per-op invariants hoisted to loop-locals: resolved once per
        # scheduling slice instead of once per op.
        local_store = (self._local_store[core_id]
                       if self._local_store is not None else None)
        dma_engine = self._dma_engine
        dma_tags = self._dma_tags
        dma_setup_cycles = self._dma_setup_cycles
        dma_setup_fs = dma_setup_cycles * cycle_fs
        imiss_fs = self._imiss_fs
        # The inline hit path goes straight at the L1's per-set dicts; the
        # slow path (and every miss) re-enters through the cache's public
        # methods, so LRU order ends up identical either way.
        l1 = hierarchy.l1s[core_id]
        l1_sets = l1._sets
        l1_mask = l1._set_mask
        peek_time = self.sim.queue.peek_time
        shared = MesiState.SHARED
        modified = MesiState.MODIFIED

        send_value = self._send_value
        now = self.now
        limit = now + quantum_fs
        # Batched deltas, flushed by _flush_locals at every exit.
        useful = 0
        sync = 0
        load_stall = 0
        store_stall = 0
        instructions = 0
        word_accesses = 0
        local_accesses = 0
        icache_misses = 0
        loads_hit = 0
        stores_hit = 0
        phase_retired = 0
        phase_total = 0
        stream_total = 0

        # Exit actions: how the loop below was left.
        FINISH, SUSPEND, YIELD = 0, 1, 2
        action = SUSPEND
        try:
            while True:
                if pending:
                    # Spilled block remainder; blocks never contain ops
                    # that suspend or send values, so send_value is
                    # untouched on this path.
                    op = pending.pop()
                else:
                    try:
                        op = gen_send(send_value)
                    except StopIteration:
                        action = FINISH
                        break
                    send_value = None
                kind = op[0]

                if kind == "c":
                    _, cycles, op_instructions, l1_accesses = op
                    cost = cycles * cycle_fs
                    now += cost
                    useful += cost
                    instructions += op_instructions
                    word_accesses += l1_accesses

                elif kind == "ld":
                    _, addr, nbytes, accesses = op
                    issue = accesses * cycle_fs
                    now += issue
                    useful += issue
                    instructions += accesses
                    word_accesses += accesses
                    line = addr >> line_shift
                    last = (addr + nbytes - 1) >> line_shift
                    while True:
                        if fast_mem:
                            cache_set = l1_sets[line & l1_mask]
                            entry = cache_set.get(line)
                            if (entry is not None and entry.ready_fs <= now
                                    and not entry.prefetched):
                                cache_set.move_to_end(line)
                                loads_hit += 1
                                if line == last:
                                    break
                                line += 1
                                continue
                        done = load_line(core_id, line, now)
                        if done > now:
                            load_stall += done - now
                            now = done
                        if line == last:
                            break
                        line += 1

                elif kind == "st" or kind == "pfs":
                    _, addr, nbytes, accesses = op
                    issue = accesses * cycle_fs
                    now += issue
                    useful += issue
                    instructions += accesses
                    word_accesses += accesses
                    no_allocate = kind == "pfs"
                    line = addr >> line_shift
                    last = (addr + nbytes - 1) >> line_shift
                    while True:
                        if fast_mem:
                            cache_set = l1_sets[line & l1_mask]
                            entry = cache_set.get(line)
                            if entry is not None and entry.state is not shared:
                                cache_set.move_to_end(line)
                                entry.state = modified
                                entry.prefetched = False
                                stores_hit += 1
                                if line == last:
                                    break
                                line += 1
                                continue
                        stall = store_line(core_id, line, now,
                                           no_allocate=no_allocate)
                        if stall:
                            store_stall += stall
                            now += stall
                        if line == last:
                            break
                        line += 1

                elif kind == "ph":
                    # Phase engine (see repro.core.ops.OpPhase): a run of
                    # ``count`` constant-stride block iterations.  The
                    # closed form below retires as many whole iterations
                    # as the quantum/queue horizon and L1 residency
                    # allow, in one arithmetic step; everything else
                    # spills back into plain ("blk", ...) replays, which
                    # the block interpreter executes bit-identically.
                    ph = op[1]
                    # A 3-tuple is a resume cursor: re-enter at the
                    # recorded iteration.  The mode-independent total is
                    # counted once, at first dispatch.
                    if len(op) == 3:
                        k0 = op[2]
                    else:
                        k0 = 0
                        phase_total += ph.count
                    count = ph.count
                    lanes = ph.lanes
                    iter_cycles = ph.iter_cycles
                    # Wholesale-ineligibility gates, cheapest first.  All
                    # are slice-invariant, so an ineligible phase spills
                    # a bounded chunk of iterations and leaves a cursor
                    # rather than re-proving ineligibility per iteration.
                    eligible = (fast_mem and iter_cycles is not None
                                and not (ph.align_or & line_mask))
                    if eligible and ph.has_local:
                        eligible = (local_store is not None
                                    and local_store.observer is None
                                    and ph.ls_max_end
                                    <= local_store.capacity_bytes)
                    if eligible:
                        # Schedule gate: retiring m iterations is safe
                        # when their end precedes the quantum limit (no
                        # renewal needed) or the queue head lies beyond
                        # it (every interior renewal succeeds).  m_peek
                        # may go negative when another core's event sits
                        # at or behind our clock; taking the larger of
                        # the two floors the bound at m_limit >= 0.
                        c_fs = iter_cycles * cycle_fs
                        m_max = count - k0
                        m_limit = (limit - now - 1) // c_fs
                        if m_limit >= m_max:
                            m_allowed = m_max
                        else:
                            next_fs = peek_time()
                            if next_fs is None:
                                m_allowed = m_max
                            else:
                                m_peek = (next_fs - now - 1) // c_fs
                                m_allowed = (m_limit if m_limit > m_peek
                                             else m_peek)
                                if m_allowed > m_max:
                                    m_allowed = m_max
                        # Below PHASE_MIN_RETIRE, foreign events are too
                        # close to prove a slice worth the arm's
                        # overhead: the block interpreter replays the
                        # renewal/yield decision per op instead.
                        eligible = m_allowed >= PHASE_MIN_RETIRE
                    if eligible:
                        geom = ph._geometries.get(line_shift)
                        if geom is None:
                            geom = ph.geometry(line_shift)
                        glanes = geom.lanes
                        # Residency scan: every line must be a guaranteed
                        # inline hit (the per-op loop's own conditions),
                        # probed at the slice start.  That is
                        # conservative-safe for every later iteration in
                        # the slice: a zero-miss slice inserts and evicts
                        # nothing, and the state transitions it does
                        # apply (SHARED departing, prefetch tags
                        # clearing, LRU touches) only ever *help* these
                        # checks.
                        if ph.all_static:
                            # Revisit phase (every stride zero):
                            # residency is iteration-invariant — check
                            # once, apply the stored/LRU transitions once
                            # (identical iterations are idempotent on
                            # cache state), and multiply the counters.
                            ok = True
                            for g, (_blk, base, _stride) in zip(glanes,
                                                                lanes):
                                dl = base >> line_shift
                                for rel, loaded, fresh, written in g.checks:
                                    line = rel + dl
                                    entry = l1_sets[line & l1_mask].get(line)
                                    if (entry is None
                                            or (loaded
                                                and (entry.ready_fs > now
                                                     or (fresh and entry
                                                         .prefetched)))
                                            or (written
                                                and entry.state is shared)):
                                        ok = False
                                        break
                                if not ok:
                                    break
                            if ok:
                                for g, (_blk, base, _stride) in zip(glanes,
                                                                    lanes):
                                    dl = base >> line_shift
                                    for rel in g.stored:
                                        line = rel + dl
                                        entry = l1_sets[line & l1_mask][line]
                                        entry.state = modified
                                        entry.prefetched = False
                                    for rel in g.lru:
                                        line = rel + dl
                                        l1_sets[line & l1_mask].move_to_end(
                                            line)
                                retire = m_allowed
                            else:
                                retire = 0
                        elif len(glanes) == 1:
                            # Single-lane strided phase (the shape every
                            # run coalescer emits): fused scan+apply with
                            # an incremental line cursor — the alignment
                            # gate proved base and stride line-multiples,
                            # so the per-iteration delta is one add.
                            g = glanes[0]
                            _blk, base, stride = lanes[0]
                            dl = (base + k0 * stride) >> line_shift
                            sdl = stride >> line_shift
                            checks = g.checks
                            g_stored = g.stored
                            g_lru = g.lru
                            n_m = m_allowed
                            retire = 0
                            if (len(checks) == 1
                                    and g_lru == (checks[0][0],)
                                    and (not g_stored
                                         or g_stored == (checks[0][0],))):
                                # One-line block (load/compute[/store] on
                                # a single cache line): the check, the
                                # dirty transition, and the LRU touch all
                                # hit the same entry, so one probe per
                                # iteration covers everything.
                                rel, loaded, fresh, written = checks[0]
                                do_store = bool(g_stored)
                                while retire < n_m:
                                    line = rel + dl
                                    cache_set = l1_sets[line & l1_mask]
                                    entry = cache_set.get(line)
                                    if (entry is None
                                            or (loaded
                                                and (entry.ready_fs > now
                                                     or (fresh and entry
                                                         .prefetched)))
                                            or (written
                                                and entry.state is shared)):
                                        break
                                    if do_store:
                                        entry.state = modified
                                        entry.prefetched = False
                                    cache_set.move_to_end(line)
                                    dl += sdl
                                    retire += 1
                                n_m = retire  # skip the generic loop below
                            while retire < n_m:
                                ok = True
                                for rel, loaded, fresh, written in checks:
                                    line = rel + dl
                                    entry = l1_sets[line & l1_mask].get(line)
                                    if (entry is None
                                            or (loaded
                                                and (entry.ready_fs > now
                                                     or (fresh and entry
                                                         .prefetched)))
                                            or (written
                                                and entry.state is shared)):
                                        ok = False
                                        break
                                if not ok:
                                    break
                                for rel in g_stored:
                                    line = rel + dl
                                    entry = l1_sets[line & l1_mask][line]
                                    entry.state = modified
                                    entry.prefetched = False
                                for rel in g_lru:
                                    l1_sets[(rel + dl) & l1_mask].move_to_end(
                                        rel + dl)
                                dl += sdl
                                retire += 1
                        else:
                            # Multi-lane strided phase: same fused
                            # scan+apply, verifying ALL lanes of an
                            # iteration before applying any of its state,
                            # stopping at the first non-resident
                            # iteration (the retired prefix stays exact).
                            # Lane line cursors advance incrementally
                            # along the iteration axis.
                            lane_geoms = list(zip(glanes, lanes))
                            dls = [(base + k0 * stride) >> line_shift
                                   for _g, (_b, base, stride) in lane_geoms]
                            sdls = [stride >> line_shift
                                    for _g, (_b, _base, stride) in lane_geoms]
                            n_m = m_allowed
                            retire = 0
                            while retire < n_m:
                                ok = True
                                for (g, _lane), dl in zip(lane_geoms, dls):
                                    for rel, loaded, fresh, written in (
                                            g.checks):
                                        line = rel + dl
                                        entry = l1_sets[line & l1_mask].get(
                                            line)
                                        if (entry is None
                                                or (loaded
                                                    and (entry.ready_fs > now
                                                         or (fresh and entry
                                                             .prefetched)))
                                                or (written and entry.state
                                                    is shared)):
                                            ok = False
                                            break
                                    if not ok:
                                        break
                                if not ok:
                                    break
                                for (g, _lane), dl in zip(lane_geoms, dls):
                                    for rel in g.stored:
                                        line = rel + dl
                                        entry = l1_sets[line & l1_mask][line]
                                        entry.state = modified
                                        entry.prefetched = False
                                    for rel in g.lru:
                                        line = rel + dl
                                        l1_sets[line & l1_mask].move_to_end(
                                            line)
                                dls = [dl + sdl for dl, sdl in zip(dls, sdls)]
                                retire += 1
                        if retire:
                            end = now + retire * c_fs
                            useful += end - now
                            instructions += ph.instructions * retire
                            word_accesses += ph.word_accesses * retire
                            local_accesses += ph.local_accesses * retire
                            loads_hit += geom.loads_hit * retire
                            stores_hit += geom.stores_hit * retire
                            if ph.has_local:
                                local_store.reads += ph.ls_reads * retire
                                local_store.read_accesses += (
                                    ph.ls_read_accesses * retire)
                                local_store.writes += ph.ls_writes * retire
                                local_store.write_accesses += (
                                    ph.ls_write_accesses * retire)
                            if end >= limit:
                                # Safe by the schedule gate: retire > m_limit
                                # only happens on the peek branch with every
                                # interior renewal proven to succeed.
                                limit = _limit_after_phase(
                                    now, limit, cycle_fs, quantum_fs,
                                    ph.iter_prefix, iter_cycles, retire)
                            now = end
                            phase_retired += retire
                            k0 += retire
                        if retire == m_allowed:
                            # Horizon-bound: the slice retired whole; the
                            # cursor re-enters with a renewed schedule
                            # gate (limit advanced above, or the peek
                            # still blocks and a chunk spills).
                            if k0 < count:
                                pending.append(("ph", ph, k0))
                            continue
                    # One spill path for an ineligible phase, a
                    # schedule-gated slice, and a residency failure at
                    # iteration k0: replay a chunk through the block
                    # interpreter, which reproduces every miss — stalls,
                    # walker calls, evictions — bit for bit, then resume
                    # the phase.  A whole chunk (not a single iteration)
                    # spills because a non-resident line usually means a
                    # streaming access pattern where the *next*
                    # iterations miss too, and a blocked schedule stays
                    # blocked for a while in barrier-lockstep runs.
                    k_hi = k0 + SPILL_CHUNK
                    if k_hi < count:
                        pending.append(("ph", ph, k_hi))
                    else:
                        k_hi = count
                    pending.extend(reversed(ph.replays(k0, k_hi)))
                    continue

                elif kind == "strm":
                    # Stream (see repro.core.ops.OpStream): materialize a
                    # bounded chunk back into the plain per-op DMA stream,
                    # handled by the ordinary dispatch arms (the DMA
                    # engine's own fast tiers serve its commands).  A
                    # 3-tuple is a resume cursor; the total is counted
                    # once, at first dispatch.
                    st = op[1]
                    if len(op) == 3:
                        k = op[2]
                    else:
                        k = 0
                        stream_total += st.count
                    k_hi = k + SPILL_CHUNK
                    if k_hi < st.count:
                        pending.append(("strm", st, k_hi))
                    else:
                        k_hi = st.count
                    pending.extend(reversed(st.materialize(k, k_hi)))
                    continue

                elif kind == "blk":
                    blk = op[1]
                    delta = op[2]
                    # A 4-tuple is a resume cursor spilled by the tight
                    # loop below at a quantum boundary; re-enter at the
                    # recorded op index.
                    start = op[3] if len(op) == 4 else 0
                    if not fastpath or blk.arith_cycles is None:
                        # Reference mode, or a block carrying DMA /
                        # prefetch / flush ops: run the plain per-op
                        # stream through the ordinary dispatch arms above.
                        pending.extend(reversed(blk.materialize(delta)))
                        continue
                    # Per-template cold verdict (see BLK_COLD_SKIP): a
                    # positive count means a prior full dispatch saw zero
                    # L1 hits — a streaming-through-memory pass — so the
                    # per-op pre-probe would only double every miss's
                    # lookups; skip the probes for that many dispatches
                    # and let the walker serve any hit bit-identically.
                    # Zero = unproven: probe, and let the outcome of a
                    # full dispatch classify the template.
                    bid = id(blk)
                    state = verdicts.get(bid, 0)
                    if state > 0:
                        verdicts[bid] = state - 1
                        probe = False
                        hits0 = -1
                    else:
                        probe = fast_mem
                        hits0 = loads_hit + stores_hit
                    # Tight per-op loop: same arms as above, no generator
                    # round trips.  Only arithmetic opcodes occur here
                    # (compute / ld / st / pfs / lsld / lsst) — blocks
                    # with anything else were materialized above.
                    ops_seq = blk.ops
                    n_ops = len(ops_seq)
                    index = start
                    yielded = False
                    while index < n_ops:
                        bop = ops_seq[index]
                        index += 1
                        bkind = bop[0]
                        if bkind == "ld":
                            _, addr, nbytes, accesses = bop
                            addr += delta
                            issue = accesses * cycle_fs
                            now += issue
                            useful += issue
                            instructions += accesses
                            word_accesses += accesses
                            line = addr >> line_shift
                            last = (addr + nbytes - 1) >> line_shift
                            while True:
                                if probe:
                                    cache_set = l1_sets[line & l1_mask]
                                    entry = cache_set.get(line)
                                    if (entry is not None
                                            and entry.ready_fs <= now
                                            and not entry.prefetched):
                                        cache_set.move_to_end(line)
                                        loads_hit += 1
                                        if line == last:
                                            break
                                        line += 1
                                        continue
                                done = load_line(core_id, line, now)
                                if done > now:
                                    load_stall += done - now
                                    now = done
                                if line == last:
                                    break
                                line += 1
                        elif bkind == "c":
                            _, cycles, op_instructions, l1_accesses = bop
                            cost = cycles * cycle_fs
                            now += cost
                            useful += cost
                            instructions += op_instructions
                            word_accesses += l1_accesses
                        elif bkind == "st" or bkind == "pfs":
                            _, addr, nbytes, accesses = bop
                            addr += delta
                            issue = accesses * cycle_fs
                            now += issue
                            useful += issue
                            instructions += accesses
                            word_accesses += accesses
                            no_allocate = bkind == "pfs"
                            line = addr >> line_shift
                            last = (addr + nbytes - 1) >> line_shift
                            while True:
                                if probe:
                                    cache_set = l1_sets[line & l1_mask]
                                    entry = cache_set.get(line)
                                    if (entry is not None
                                            and entry.state is not shared):
                                        cache_set.move_to_end(line)
                                        entry.state = modified
                                        entry.prefetched = False
                                        stores_hit += 1
                                        if line == last:
                                            break
                                        line += 1
                                        continue
                                stall = store_line(core_id, line, now,
                                                   no_allocate=no_allocate)
                                if stall:
                                    store_stall += stall
                                    now += stall
                                if line == last:
                                    break
                                line += 1
                        else:  # lsld / lsst
                            _, offset, nbytes, accesses = bop
                            if local_store is None:
                                raise SimulationError(
                                    f"core {core_id}: local-store access "
                                    "on the cache-coherent model")
                            local_store.check_range(offset, nbytes)
                            if bkind == "lsld":
                                local_store.record_read(nbytes, accesses)
                            else:
                                local_store.record_write(nbytes, accesses)
                            issue = accesses * cycle_fs
                            now += issue
                            useful += issue
                            instructions += accesses
                            local_accesses += accesses
                        if now >= limit:
                            next_fs = peek_time()
                            if next_fs is None or next_fs > now:
                                limit = now + quantum_fs
                                continue
                            if index < n_ops:
                                pending.append(("blk", blk, delta, index))
                            yielded = True
                            break
                    if (hits0 >= 0 and not yielded and start == 0
                            and loads_hit + stores_hit == hits0):
                        verdicts[bid] = BLK_COLD_SKIP
                    if yielded:
                        action = YIELD
                        break
                    continue

                elif kind == "lsld" or kind == "lsst":
                    _, offset, nbytes, accesses = op
                    store = local_store
                    if store is None:
                        raise SimulationError(
                            f"core {core_id}: local-store access on the "
                            "cache-coherent model")
                    store.check_range(offset, nbytes)
                    if kind == "lsld":
                        store.record_read(nbytes, accesses)
                    else:
                        store.record_write(nbytes, accesses)
                    issue = accesses * cycle_fs
                    now += issue
                    useful += issue
                    instructions += accesses
                    local_accesses += accesses

                elif kind == "dget" or kind == "dput":
                    _, tag, addr, nbytes, stride, block = op
                    if dma_engine is None:
                        raise SimulationError(
                            f"core {core_id}: DMA issued on the "
                            "cache-coherent model"
                        )
                    now += dma_setup_fs
                    useful += dma_setup_fs
                    instructions += dma_setup_cycles
                    if kind == "dget":
                        done = dma_engine.get(now, addr, nbytes, stride, block)
                    else:
                        done = dma_engine.put(now, addr, nbytes, stride, block)
                    previous = dma_tags.get(tag, 0)
                    if done > previous:
                        dma_tags[tag] = done

                elif kind == "dwait":
                    done = dma_tags.get(op[1])
                    if done is None:
                        # Waiting on a tag that never issued a command is
                        # always a workload bug (the wait would silently
                        # cost zero time), so fail loudly.
                        raise SimulationError(
                            f"core {core_id}: dwait on tag {op[1]} which "
                            "never issued a DMA command")
                    if done > now:
                        sync += done - now
                        now = done

                elif kind == "bar":
                    overhead = BARRIER_OVERHEAD_CYCLES * cycle_fs
                    now += overhead
                    useful += overhead
                    instructions += BARRIER_OVERHEAD_CYCLES
                    release = op[1].arrive(self, now)
                    if release is None:
                        break  # suspended; the barrier will wake us
                    sync += release - now
                    now = release

                elif kind == "lock":
                    overhead = LOCK_OVERHEAD_CYCLES * cycle_fs
                    now += overhead
                    useful += overhead
                    instructions += LOCK_OVERHEAD_CYCLES
                    granted = op[1].acquire(self, now)
                    if granted is None:
                        break  # suspended; the lock will wake us

                elif kind == "unlock":
                    op[1].release(self, now)

                elif kind == "pop":
                    overhead_fs = TASK_POP_OVERHEAD_CYCLES * cycle_fs
                    instructions += TASK_POP_OVERHEAD_CYCLES
                    item, done = op[1].pop(now, overhead_fs)
                    wait = done - now
                    useful += overhead_fs
                    sync += wait - overhead_fs
                    now = done
                    send_value = item

                elif kind == "bpf":
                    _, addr, nbytes = op
                    now += dma_setup_fs
                    useful += dma_setup_fs
                    instructions += dma_setup_cycles
                    first = addr >> line_shift
                    last = (addr + nbytes - 1) >> line_shift
                    hierarchy.bulk_prefetch(core_id, first, last, now)

                elif kind == "cfl" or kind == "cinv":
                    _, addr, nbytes = op
                    first = addr >> line_shift
                    last = (addr + nbytes - 1) >> line_shift
                    n_lines = last - first + 1
                    # Software loop: one instruction per line walked.
                    cost = n_lines * cycle_fs
                    now += cost
                    useful += cost
                    instructions += n_lines
                    if kind == "cfl":
                        hierarchy.flush_range(core_id, first, last, now)
                    else:
                        hierarchy.invalidate_range(core_id, first, last, now)

                elif kind == "im":
                    count = op[1]
                    icache_misses += count
                    penalty = count * imiss_fs
                    now += penalty
                    useful += penalty

                else:
                    raise SimulationError(f"core {core_id}: unknown op {op!r}")

                if now >= limit:
                    if fastpath:
                        next_fs = peek_time()
                        if next_fs is None or next_fs > now:
                            # Sole runnable actor: our resume event would
                            # pop next with nothing in between.  Renew the
                            # quantum in place instead of going through
                            # the heap.
                            limit = now + quantum_fs
                            continue
                    action = YIELD
                    break
        finally:
            # Single flush point: every exit (finish, suspend, yield, or
            # an op raising mid-quantum) folds the batch back exactly once.
            self._flush_locals(
                now, send_value, useful, sync, load_stall, store_stall,
                instructions, word_accesses, local_accesses, icache_misses,
                loads_hit, stores_hit, phase_retired, phase_total,
                stream_total)
        if action == FINISH:
            self._finish()
        elif action == YIELD:
            self.sim.at(self.now, self._step)

    def _flush_locals(self, now, send_value, useful, sync, load_stall,
                      store_stall, instructions, word_accesses,
                      local_accesses, icache_misses, loads_hit,
                      stores_hit, phase_retired, phase_total,
                      stream_total) -> None:
        """Fold the hot loop's batched deltas back into the object state."""
        self.now = now
        self._send_value = send_value
        self.useful_fs += useful
        self.sync_fs += sync
        self.load_stall_fs += load_stall
        self.store_stall_fs += store_stall
        self.instructions += instructions
        self.word_accesses += word_accesses
        self.local_accesses += local_accesses
        self.icache_misses += icache_misses
        self.phase_iters += phase_retired
        self.phase_iters_total += phase_total
        self.stream_iters_total += stream_total
        if loads_hit or stores_hit:
            self.hierarchy.fold_hit_counters(loads_hit, stores_hit)

    def _finish(self) -> None:
        self.done = True
        self.finish_fs = self.now
        self.system.core_finished(self)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    @property
    def total_fs(self) -> int:
        """Sum of all four execution-time components."""
        return self.useful_fs + self.sync_fs + self.load_stall_fs + self.store_stall_fs
