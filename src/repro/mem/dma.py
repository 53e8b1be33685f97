"""Per-core DMA engine for the streaming model (Section 3.3).

Each core has a DMA engine that supports sequential, strided, and indexed
transfers, command queuing, and up to 16 outstanding 32-byte accesses.
Transfers move data between the core's local store and the L2 / off-chip
memory over the same interconnect the coherent model uses.

Timing model: the engine serializes its own commands; within a command,
granules pipeline through the interconnect and memory channel subject to
the outstanding-access window (granule *i* cannot start before granule
*i - 16* completed), which is how DMA hides memory latency (macroscopic
prefetching) without needing infinite buffering.

Bandwidth model: line-sized, line-aligned granules travel through the L2
(which avoids refills on writes that overwrite entire lines — Section
3.3); sub-line granules (strided scatter/gather) bypass the L2 and move
only the bytes requested, the "minimum memory channel bandwidth" property
of Section 2.3.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from repro.config import StreamConfig
from repro.mem.coherence import MesiState
from repro.sim.fastpath import fastpath_enabled
from repro.sim.resources import _MAX_INTERVALS, _TRIM_AT


def _plan_stage(res, segs, service):
    """Plan serving arithmetic arrival trains on one occupancy resource.

    ``segs`` is a list of ``(t0, d, k)`` arrival segments — ``k`` arrivals
    at ``t0, t0 + d, ...`` — monotone across the list.  A constant-spacing
    train through a constant-service resource is a D/D/1 renewal: each
    segment splits into at most a *queued* run (arrivals inside the busy
    tail, completions spaced ``service``) and a *paced* run (arrivals past
    the tail, completions spaced ``d``), with the crossover index in
    closed form.  Returns ``(out_segs, wait_fs, ops)`` where ``ops``
    replays the exact calendar mutations the per-granule ``serve`` loop
    would have made (tail extensions, single appends, interval runs), or
    None when an arrival lands before the tail interval's start — the
    backfill case, which must walk the full calendar and is left to the
    ordinary path.  Pure planning: nothing is mutated here, so a bail
    anywhere in a multi-stage chain commits nothing.
    """
    starts = res._starts
    ends = res._ends
    lat = res.latency_fs
    if ends:
        v_start = starts[-1]
        v_end = ends[-1]
    else:
        v_start = v_end = None
    wait = 0
    ops = []
    out = []
    for a0, d, k in segs:
        if v_end is not None and a0 < v_start:
            return None
        m = a0 if (v_end is None or a0 > v_end) else v_end
        if d <= service or m == a0:
            i0 = k if d <= service else 0
        else:
            i0 = -(-(m - a0) // (d - service))
        if i0 >= k:
            # Every arrival queues on (or seeds) the busy tail: one
            # contiguous block, completions spaced by the service time.
            if v_end is None or a0 > v_end:
                ops.append(("a", a0, a0 + k * service))
                v_start = a0
            else:
                ops.append(("e", v_end + k * service))
            v_end = m + k * service
            wait += k * (m - a0) + (service - d) * (k * (k - 1) // 2)
            out.append((m + service + lat, service, k))
        else:
            # Queued transient (i < i0), then paced: each arrival finds
            # the resource idle and opens its own interval, spaced d.
            if i0:
                ops.append(("e", v_end + i0 * service))
                v_end += i0 * service
                wait += (i0 * (m - a0)
                         + (service - d) * (i0 * (i0 - 1) // 2))
                out.append((m + service + lat, service, i0))
            kp = k - i0
            p0 = a0 + i0 * d
            if v_end is not None and p0 == v_end:
                ops.append(("e", p0 + service))
                if kp > 1:
                    ops.append(("r", p0 + d, d, kp - 1))
                    v_start = p0 + (kp - 1) * d
            else:
                ops.append(("r", p0, d, kp))
                v_start = p0 + (kp - 1) * d
            v_end = p0 + (kp - 1) * d + service
            out.append((p0 + service + lat, d, kp))
    return out, wait, ops


def _plan_chain(chain, start, h):
    """Plan one all-hit command through a whole resource chain.

    ``chain`` is the command's stage list ``((resource, service_fs),
    ...)``; the command arrives as one zero-spacing train of ``h``
    granules at ``start``.  Returns a *relative* replay recipe
    ``(stages, window_segs, done_rel)`` — every time in it is an offset
    from ``start`` — or None when any stage hits the backfill path.

    The recipe is the unit of the steady-state cache: :func:`_plan_stage`
    is shift-invariant (its arithmetic uses only differences and
    comparisons of times), so two commands whose chain tails sit at the
    same offsets from their respective starts produce the same recipe.
    In the double-buffer steady state every iteration's commands repeat
    one of a handful of relative configurations, and the whole O(stages)
    planning pass collapses into one dict hit.
    """
    segs = ((start, 0, h),)
    stages = []
    for res, service in chain:
        plan = _plan_stage(res, segs, service)
        if plan is None:
            return None
        segs, wait, ops = plan
        rel = []
        for op in ops:
            tag = op[0]
            if tag == "e":
                rel.append(("e", op[1] - start))
            elif tag == "a":
                rel.append(("a", op[1] - start, op[2] - start))
            else:
                rel.append(("r", op[1] - start, op[2], op[3]))
        stages.append((tuple(rel), wait))
    win = tuple((t0 - start, d, k) for t0, d, k in segs)
    t0, d, k = win[-1]
    return tuple(stages), win, t0 + (k - 1) * d


def _apply_chain(chain, stages, start, h):
    """Commit a :func:`_plan_chain` recipe at absolute time ``start``.

    Replays, per stage, exactly the calendar mutations the per-granule
    ``serve`` loop would have made (tail extensions, single appends,
    interval runs), the per-append chunked trim — each time the calendar
    reaches ``_TRIM_AT`` entries the oldest ``_MAX_INTERVALS`` drop in
    one slice, leaving the identical retained suffix — and the busy /
    wait / request counters in aggregate.
    """
    for (res, service), (ops, wait) in zip(chain, stages):
        starts = res._starts
        ends = res._ends
        for op in ops:
            tag = op[0]
            if tag == "e":
                ends[-1] = start + op[1]
            elif tag == "a":
                starts.append(start + op[1])
                ends.append(start + op[2])
            else:
                _, p0, d, k = op
                p0 += start
                starts.extend(range(p0, p0 + k * d, d))
                ends.extend(range(p0 + service, p0 + k * d + service, d))
        m = len(starts)
        if m >= _TRIM_AT:
            while m >= _TRIM_AT:
                m -= _MAX_INTERVALS
            del starts[:len(starts) - m]
            del ends[:len(ends) - m]
        res.busy_fs += h * service
        res.requests += h
        res.wait_fs += wait


class DmaEngine:
    """One core's DMA engine."""

    def __init__(self, core_id: int, cluster_id: int, uncore,
                 config: StreamConfig, line_bytes: int) -> None:
        self.core_id = core_id
        self.cluster_id = cluster_id
        self.uncore = uncore
        self.config = config
        self.line_bytes = line_bytes
        self._line_shift = line_bytes.bit_length() - 1
        self._engine_free = 0
        self._window: deque[int] = deque(maxlen=config.dma_max_outstanding)
        self.commands = 0
        self.bytes_read = 0
        self.bytes_written = 0
        #: Execution mode (REPRO_FASTPATH), read at construction like the
        #: processor's: when on, contiguous line-aligned commands whose
        #: lines are all L2-resident are served by a fused renewal loop
        #: (:meth:`_fast_get` / :meth:`_fast_put`) instead of four
        #: resource method calls per granule.  The fused loop replays the
        #: exact calendar, counter, and LRU transitions of the ordinary
        #: path, granule for granule, and bails to it at the first line
        #: that is not a guaranteed hit.
        self._fast = fastpath_enabled()
        #: Resource chains for all-hit line commands (get: crossbar-up
        #: control, L2 bank, crossbar-down transfer, bus response; put:
        #: bus request, crossbar-up transfer, L2 bank), resolved lazily
        #: with their per-granule service times.
        self._get_chain: tuple | None = None
        self._put_chain: tuple | None = None
        #: Steady-state recipe caches: relative chain signature ->
        #: :func:`_plan_chain` recipe.  The double-buffer steady state
        #: revisits a handful of signatures, so nearly every command
        #: after warmup is a dict hit; the caches are cleared (not
        #: LRU-managed) on the off chance a workload churns signatures.
        self._get_recipes: dict = {}
        self._put_recipes: dict = {}
        #: Optional invariant observer (repro.analysis.monitors), called
        #: as ``observer(kind, engine, addr, nbytes, stride, block,
        #: now_fs)`` with kind "get"/"put" before each command executes.
        self.observer = None
        #: Optional command tracer (repro.obs), called as
        #: ``trace_hook(kind, core, issue_fs, start_fs, done_fs, addr,
        #: nbytes)`` *after* each command's timing is resolved.  Purely
        #: observational, and — unlike the hierarchy's per-access
        #: ``trace_hook`` — fastpath-compatible: DMA commands always
        #: execute through the engine, never through the processor's
        #: inline-hit path, so attaching this changes nothing.
        self.trace_hook = None

    def _blocks(self, addr: int, nbytes: int, stride: int,
                block: int | None) -> Iterable[tuple[int, int]]:
        """Yield (address, size) pairs for one command's blocks."""
        if nbytes <= 0:
            raise ValueError(f"DMA transfer size must be positive, got {nbytes}")
        if stride == 0:
            yield addr, nbytes
            return
        if block is None or block <= 0:
            raise ValueError("strided DMA requires a positive block size")
        if abs(stride) < block:
            raise ValueError(f"stride {stride} smaller than block {block}")
        offset = 0
        position = addr
        while offset < nbytes:
            size = min(block, nbytes - offset)
            yield position, size
            position += stride
            offset += size

    def _throttle(self, start_fs: int) -> int:
        """Apply the outstanding-access window to a granule start time."""
        window = self._window
        if len(window) == window.maxlen:
            start_fs = max(start_fs, window[0])
        return start_fs

    # ------------------------------------------------------------------
    # Fused all-L2-hit command path (off in the REPRO_FASTPATH=0 mode)
    # ------------------------------------------------------------------
    #
    # The granule loops in get/put spend nearly all their time in four
    # resource method calls per granule (window throttle -> crossbar ->
    # L2 bank -> return links).  In the double-buffer steady state every
    # granule is an L2 hit, and DMA commands execute atomically inside
    # one processor event — no other actor can interleave mid-command —
    # so the whole chain is a pure renewal recurrence over the resource
    # calendar tails.  The two methods below run that recurrence in one
    # fused loop: per granule, one L2 probe + MRU touch and a handful of
    # integer compares, with the counters folded in aggregate afterward.
    # Each inline branch is a literal transcription of the corresponding
    # branch of OccupancyResource.serve / _Link.transfer / _Link.control,
    # so calendars, busy/wait accounting, and LRU state come out
    # bit-identical; anything off the beaten path (a non-resident line, a
    # backfill arrival, a second L2 bank) bails to the ordinary methods
    # for the rest of the command.

    def _chains(self) -> tuple:
        """Resolve (and cache) the get/put stage chains for this engine."""
        u = self.uncore
        cl = self.cluster_id
        lb = self.line_bytes
        xc = u.xbar.up[cl]
        bk = u.l2_banks[0]
        xd = u.xbar.down[cl]
        br = u.buses[cl].resp
        bq = u.buses[cl].req
        self._get_chain = (
            (xc, xc.cycle_fs),
            (bk, u._l2_service_fs),
            (xd, (-(-lb // xd.width_bytes) or 1) * xd.cycle_fs),
            (br, (-(-lb // br.width_bytes) or 1) * br.cycle_fs),
        )
        self._put_chain = (
            (bq, (-(-lb // bq.width_bytes) or 1) * bq.cycle_fs),
            (xc, (-(-lb // xc.width_bytes) or 1) * xc.cycle_fs),
            (bk, u._l2_service_fs),
        )
        return self._get_chain, self._put_chain

    @staticmethod
    def _chain_recipe(chain, recipes, start, h):
        """Look up (or plan and cache) the recipe for one command.

        The signature is the full planner input relative to ``start``:
        the granule count plus every chain resource's tail interval
        offsets (None for an empty calendar).  Matching signatures give
        byte-identical plans because :func:`_plan_stage` is
        shift-invariant, so a hit skips straight to the commit.
        """
        sig = [h]
        push = sig.append
        for res, _service in chain:
            ends = res._ends
            if ends:
                push(res._starts[-1] - start)
                push(ends[-1] - start)
            else:
                push(None)
                push(None)
        sig = tuple(sig)
        rec = recipes.get(sig)
        if rec is None:
            rec = _plan_chain(chain, start, h)
            if rec is None:
                return None
            if len(recipes) >= 512:
                recipes.clear()
            recipes[sig] = rec
        return rec

    def _renewal_get(self, start: int, line0: int,
                     nlines: int) -> tuple[int, int] | None:
        """Retire a whole all-hit get command in closed form.

        Valid when the command fits inside the outstanding-access window
        (the window holds completions of *previous* commands, all at or
        before ``engine_free <= start``, so the first ``maxlen`` granules
        of any command are provably unthrottled) and the single L2 bank
        applies.  The hit prefix of the command is planned as one
        zero-spacing arrival train through the four-stage resource chain
        via :func:`_plan_chain` — O(stages), not O(granules), and one
        dict hit in steady state — and committed only if every stage
        stays off the backfill path.  Returns ``(granules_served,
        completion_high_water)``, or None to fall back to the
        per-granule fused loop.
        """
        u = self.uncore
        if u._num_banks != 1:
            return None
        window = self._window
        if nlines > window.maxlen:
            return None
        l2 = u.l2
        sets = l2._sets
        smask = l2._set_mask
        # Fused probe + LRU touch: moving a hit line before the plan is
        # committed is safe even if the planner bails — the per-granule
        # fallback serves exactly the same hit prefix and re-applies the
        # same moves in the same ascending order.
        line = line0
        end_line = line0 + nlines
        while line < end_line:
            cs = sets[line & smask]
            if line not in cs:
                break
            cs.move_to_end(line)
            line += 1
        h = line - line0
        if h == 0:
            return 0, start
        chain = self._get_chain
        if chain is None:
            chain = self._chains()[0]
        rec = self._chain_recipe(chain, self._get_recipes, start, h)
        if rec is None:
            return None
        stages, win_segs, done_rel = rec
        _apply_chain(chain, stages, start, h)
        lb = self.line_bytes
        chain[2][0].bytes_moved += h * lb
        chain[3][0].bytes_moved += h * lb
        u.l2_reads += h
        u.l2_read_hits += h
        extend = window.extend
        for t0, d, k in win_segs:
            t0 += start
            extend(range(t0, t0 + k * d, d) if d else (t0,) * k)
        return h, start + done_rel

    def _renewal_put(self, start: int, line0: int,
                     nlines: int) -> tuple[int, int] | None:
        """Closed-form counterpart of :meth:`_renewal_get` for puts."""
        u = self.uncore
        if u._num_banks != 1:
            return None
        window = self._window
        if nlines > window.maxlen:
            return None
        l2 = u.l2
        sets = l2._sets
        smask = l2._set_mask
        # Fused probe + state/LRU apply (see _renewal_get: safe on bail
        # because the fallback re-applies identical transitions).
        modified = MesiState.MODIFIED
        line = line0
        end_line = line0 + nlines
        while line < end_line:
            cs = sets[line & smask]
            entry = cs.get(line)
            if entry is None:
                break
            cs.move_to_end(line)
            entry.state = modified
            line += 1
        h = line - line0
        if h == 0:
            return 0, start
        chain = self._put_chain
        if chain is None:
            chain = self._chains()[1]
        rec = self._chain_recipe(chain, self._put_recipes, start, h)
        if rec is None:
            return None
        stages, win_segs, done_rel = rec
        _apply_chain(chain, stages, start, h)
        lb = self.line_bytes
        chain[0][0].bytes_moved += h * lb
        chain[1][0].bytes_moved += h * lb
        u.l2_writes += h
        u.l2_write_hits += h
        extend = window.extend
        for t0, d, k in win_segs:
            t0 += start
            extend(range(t0, t0 + k * d, d) if d else (t0,) * k)
        return h, start + done_rel

    def _fast_get(self, start: int, line0: int, nlines: int) -> tuple[int, int]:
        """Serve leading all-hit granules of a contiguous line-aligned get.

        Returns ``(granules_served, completion_high_water)``; the caller
        finishes the remaining granules (if any) on the ordinary path.
        """
        u = self.uncore
        if u._num_banks != 1:
            return 0, start
        l2 = u.l2
        sets = l2._sets
        smask = l2._set_mask
        bk = u.l2_banks[0]
        cl = self.cluster_id
        xc = u.xbar.up[cl]
        xd = u.xbar.down[cl]
        br = u.buses[cl].resp
        lb = self.line_bytes
        # Per-resource constants and calendar tails, hoisted once.
        xc_s = xc.cycle_fs
        xc_lat = xc.latency_fs
        xc_starts, xc_ends = xc._starts, xc._ends
        bk_s = u._l2_service_fs
        bk_lat = bk.latency_fs
        bk_starts, bk_ends = bk._starts, bk._ends
        xd_s = (-(-lb // xd.width_bytes) or 1) * xd.cycle_fs
        xd_lat = xd.latency_fs
        xd_starts, xd_ends = xd._starts, xd._ends
        br_s = (-(-lb // br.width_bytes) or 1) * br.cycle_fs
        br_lat = br.latency_fs
        br_starts, br_ends = br._starts, br._ends
        xc_n = bk_n = xd_n = br_n = 0
        xc_wait = bk_wait = xd_wait = br_wait = 0
        window = self._window
        win = window.maxlen
        append = window.append
        wlen = len(window)
        done = start
        served = 0
        line = line0
        end_line = line0 + nlines
        while line < end_line:
            cache_set = sets[line & smask]
            if line not in cache_set:
                break
            # Outstanding-access window.
            if wlen < win:
                t = start
                wlen += 1
            else:
                w0 = window[0]
                t = start if start >= w0 else w0
            # Crossbar up port, control message (_Link.control).
            if not xc_ends or t >= xc_ends[-1]:
                xc_n += 1
                e = t + xc_s
                if xc_ends and xc_ends[-1] == t:
                    xc_ends[-1] = e
                else:
                    xc_starts.append(t)
                    xc_ends.append(e)
                    if len(xc_starts) >= _TRIM_AT:
                        del xc_starts[:_MAX_INTERVALS]
                        del xc_ends[:_MAX_INTERVALS]
                t = e + xc_lat
            elif t >= xc_starts[-1]:
                xc_n += 1
                e = xc_ends[-1]
                xc_wait += e - t
                e += xc_s
                xc_ends[-1] = e
                t = e + xc_lat
            else:
                t = xc.acquire(t, xc_s)[1]
            # L2 bank port (OccupancyResource.serve) -- hit, so the
            # access completes at the bank; counters fold below.
            if not bk_ends or t >= bk_ends[-1]:
                bk_n += 1
                e = t + bk_s
                if bk_ends and bk_ends[-1] == t:
                    bk_ends[-1] = e
                else:
                    bk_starts.append(t)
                    bk_ends.append(e)
                    if len(bk_starts) >= _TRIM_AT:
                        del bk_starts[:_MAX_INTERVALS]
                        del bk_ends[:_MAX_INTERVALS]
                t = e + bk_lat
            elif t >= bk_starts[-1]:
                bk_n += 1
                e = bk_ends[-1]
                bk_wait += e - t
                e += bk_s
                bk_ends[-1] = e
                t = e + bk_lat
            else:
                t = bk.acquire(t, bk_s)[1]
            cache_set.move_to_end(line)
            # Crossbar down port, line transfer (_Link.transfer).
            if not xd_ends or t >= xd_ends[-1]:
                xd_n += 1
                e = t + xd_s
                if xd_ends and xd_ends[-1] == t:
                    xd_ends[-1] = e
                else:
                    xd_starts.append(t)
                    xd_ends.append(e)
                    if len(xd_starts) >= _TRIM_AT:
                        del xd_starts[:_MAX_INTERVALS]
                        del xd_ends[:_MAX_INTERVALS]
                t = e + xd_lat
            elif t >= xd_starts[-1]:
                xd_n += 1
                e = xd_ends[-1]
                xd_wait += e - t
                e += xd_s
                xd_ends[-1] = e
                t = e + xd_lat
            else:
                t = xd.acquire(t, xd_s)[1]
            # Cluster bus, response direction (_Link.transfer).
            if not br_ends or t >= br_ends[-1]:
                br_n += 1
                e = t + br_s
                if br_ends and br_ends[-1] == t:
                    br_ends[-1] = e
                else:
                    br_starts.append(t)
                    br_ends.append(e)
                    if len(br_starts) >= _TRIM_AT:
                        del br_starts[:_MAX_INTERVALS]
                        del br_ends[:_MAX_INTERVALS]
                t = e + br_lat
            elif t >= br_starts[-1]:
                br_n += 1
                e = br_ends[-1]
                br_wait += e - t
                e += br_s
                br_ends[-1] = e
                t = e + br_lat
            else:
                t = br.acquire(t, br_s)[1]
            append(t)
            if t > done:
                done = t
            served += 1
            line += 1
        if served:
            if xc_n:
                xc.busy_fs += xc_n * xc_s
                xc.requests += xc_n
                xc.wait_fs += xc_wait
            if bk_n:
                bk.busy_fs += bk_n * bk_s
                bk.requests += bk_n
                bk.wait_fs += bk_wait
            if xd_n:
                xd.busy_fs += xd_n * xd_s
                xd.requests += xd_n
                xd.wait_fs += xd_wait
            if br_n:
                br.busy_fs += br_n * br_s
                br.requests += br_n
                br.wait_fs += br_wait
            xd.bytes_moved += served * lb
            br.bytes_moved += served * lb
            u.l2_reads += served
            u.l2_read_hits += served
        return served, done

    def _fast_put(self, start: int, line0: int, nlines: int) -> tuple[int, int]:
        """Serve leading all-hit granules of a contiguous line-aligned put.

        Mirrors :meth:`_fast_get` for the write chain (request bus ->
        crossbar up -> L2 bank, hit dirtying the line in place).
        """
        u = self.uncore
        if u._num_banks != 1:
            return 0, start
        l2 = u.l2
        sets = l2._sets
        smask = l2._set_mask
        bk = u.l2_banks[0]
        cl = self.cluster_id
        bq = u.buses[cl].req
        xu = u.xbar.up[cl]
        lb = self.line_bytes
        bq_s = (-(-lb // bq.width_bytes) or 1) * bq.cycle_fs
        bq_lat = bq.latency_fs
        bq_starts, bq_ends = bq._starts, bq._ends
        xu_s = (-(-lb // xu.width_bytes) or 1) * xu.cycle_fs
        xu_lat = xu.latency_fs
        xu_starts, xu_ends = xu._starts, xu._ends
        bk_s = u._l2_service_fs
        bk_lat = bk.latency_fs
        bk_starts, bk_ends = bk._starts, bk._ends
        bq_n = xu_n = bk_n = 0
        bq_wait = xu_wait = bk_wait = 0
        modified = MesiState.MODIFIED
        window = self._window
        win = window.maxlen
        append = window.append
        wlen = len(window)
        done = start
        served = 0
        line = line0
        end_line = line0 + nlines
        while line < end_line:
            cache_set = sets[line & smask]
            entry = cache_set.get(line)
            if entry is None:
                break
            if wlen < win:
                t = start
                wlen += 1
            else:
                w0 = window[0]
                t = start if start >= w0 else w0
            # Cluster bus, request direction (_Link.transfer).
            if not bq_ends or t >= bq_ends[-1]:
                bq_n += 1
                e = t + bq_s
                if bq_ends and bq_ends[-1] == t:
                    bq_ends[-1] = e
                else:
                    bq_starts.append(t)
                    bq_ends.append(e)
                    if len(bq_starts) >= _TRIM_AT:
                        del bq_starts[:_MAX_INTERVALS]
                        del bq_ends[:_MAX_INTERVALS]
                t = e + bq_lat
            elif t >= bq_starts[-1]:
                bq_n += 1
                e = bq_ends[-1]
                bq_wait += e - t
                e += bq_s
                bq_ends[-1] = e
                t = e + bq_lat
            else:
                t = bq.acquire(t, bq_s)[1]
            # Crossbar up port, line transfer (_Link.transfer).
            if not xu_ends or t >= xu_ends[-1]:
                xu_n += 1
                e = t + xu_s
                if xu_ends and xu_ends[-1] == t:
                    xu_ends[-1] = e
                else:
                    xu_starts.append(t)
                    xu_ends.append(e)
                    if len(xu_starts) >= _TRIM_AT:
                        del xu_starts[:_MAX_INTERVALS]
                        del xu_ends[:_MAX_INTERVALS]
                t = e + xu_lat
            elif t >= xu_starts[-1]:
                xu_n += 1
                e = xu_ends[-1]
                xu_wait += e - t
                e += xu_s
                xu_ends[-1] = e
                t = e + xu_lat
            else:
                t = xu.acquire(t, xu_s)[1]
            # L2 write hit (Uncore.l2_write with refill=False): MRU touch,
            # bank access, line dirtied in place.
            cache_set.move_to_end(line)
            if not bk_ends or t >= bk_ends[-1]:
                bk_n += 1
                e = t + bk_s
                if bk_ends and bk_ends[-1] == t:
                    bk_ends[-1] = e
                else:
                    bk_starts.append(t)
                    bk_ends.append(e)
                    if len(bk_starts) >= _TRIM_AT:
                        del bk_starts[:_MAX_INTERVALS]
                        del bk_ends[:_MAX_INTERVALS]
                t = e + bk_lat
            elif t >= bk_starts[-1]:
                bk_n += 1
                e = bk_ends[-1]
                bk_wait += e - t
                e += bk_s
                bk_ends[-1] = e
                t = e + bk_lat
            else:
                t = bk.acquire(t, bk_s)[1]
            entry.state = modified
            append(t)
            if t > done:
                done = t
            served += 1
            line += 1
        if served:
            if bq_n:
                bq.busy_fs += bq_n * bq_s
                bq.requests += bq_n
                bq.wait_fs += bq_wait
            if xu_n:
                xu.busy_fs += xu_n * xu_s
                xu.requests += xu_n
                xu.wait_fs += xu_wait
            if bk_n:
                bk.busy_fs += bk_n * bk_s
                bk.requests += bk_n
                bk.wait_fs += bk_wait
            bq.bytes_moved += served * lb
            xu.bytes_moved += served * lb
            u.l2_writes += served
            u.l2_write_hits += served
        return served, done

    def get(self, now_fs: int, addr: int, nbytes: int,
            stride: int = 0, block: int | None = None) -> int:
        """Fetch from memory into the local store; returns completion time."""
        if self.observer is not None:
            self.observer("get", self, addr, nbytes, stride, block, now_fs)
        self.commands += 1
        self.bytes_read += nbytes
        start = max(now_fs, self._engine_free)
        done = start
        uncore = self.uncore
        cl = self.cluster_id
        # Hot-loop locals: every granule crosses three resources, so the
        # attribute chains are hoisted once per command.
        line_bytes = self.line_bytes
        window = self._window
        win_size = window.maxlen
        append = window.append
        xbar_control = uncore.xbar.up[cl].control
        xbar_down = uncore.xbar.down[cl].transfer
        bus_resp = uncore.buses[cl].resp.transfer
        l2_read = uncore.l2_read
        if stride == 0 and nbytes > 0 and not (addr & (line_bytes - 1)) \
                and not (nbytes & (line_bytes - 1)):
            # Contiguous line-aligned command: uniform line granules.
            line0 = addr >> self._line_shift
            nlines = nbytes >> self._line_shift
            first = 0
            # Single-line commands (e.g. a mesh gather rim) skip the
            # closed-form probes: planning one granule costs more than
            # the one pass through the plain loop it would replace.
            if nlines > 1 and self._fast and self.observer is None:
                fast = self._renewal_get(start, line0, nlines)
                if fast is None:
                    fast = self._fast_get(start, line0, nlines)
                first, done = fast
            for line in range(line0 + first, line0 + nlines):
                t = start if len(window) < win_size else max(start, window[0])
                t = xbar_control(t)
                t, _ = l2_read(line, t)
                t = xbar_down(t, line_bytes)
                t = bus_resp(t, line_bytes)
                append(t)
                if t > done:
                    done = t
        else:
            shift = self._line_shift
            l2_read_partial = uncore.l2_read_partial
            for block_addr, block_size in self._blocks(addr, nbytes, stride,
                                                       block):
                for gran_addr, gran_size in self._granules(block_addr,
                                                           block_size):
                    t = start if len(window) < win_size \
                        else max(start, window[0])
                    line = gran_addr >> shift
                    t = xbar_control(t)
                    if gran_size == line_bytes and gran_addr % line_bytes == 0:
                        t, _ = l2_read(line, t)
                    else:
                        # Scatter/gather: the L2 still serves reuse; a miss
                        # moves only the bytes needed from DRAM.
                        t = l2_read_partial(line, gran_size, t)
                    t = xbar_down(t, gran_size)
                    t = bus_resp(t, gran_size)
                    append(t)
                    if t > done:
                        done = t
        self._engine_free = done
        if self.trace_hook is not None:
            self.trace_hook("get", self.core_id, now_fs, start, done,
                            addr, nbytes)
        return done

    def put(self, now_fs: int, addr: int, nbytes: int,
            stride: int = 0, block: int | None = None) -> int:
        """Write from the local store to memory; returns completion time.

        Writes are posted: the returned time is when the engine has pushed
        the last granule into the memory system (the data's journey to DRAM
        continues via L2 write-back, exactly as the paper's Section 3.3
        describes — "the L2 cache avoids refills on write misses when DMA
        transfers overwrite entire lines").
        """
        if self.observer is not None:
            self.observer("put", self, addr, nbytes, stride, block, now_fs)
        self.commands += 1
        self.bytes_written += nbytes
        start = max(now_fs, self._engine_free)
        done = start
        uncore = self.uncore
        cl = self.cluster_id
        line_bytes = self.line_bytes
        window = self._window
        win_size = window.maxlen
        append = window.append
        bus_req = uncore.buses[cl].req.transfer
        xbar_up = uncore.xbar.up[cl].transfer
        l2_write = uncore.l2_write
        if stride == 0 and nbytes > 0 and not (addr & (line_bytes - 1)) \
                and not (nbytes & (line_bytes - 1)):
            line0 = addr >> self._line_shift
            nlines = nbytes >> self._line_shift
            first = 0
            # Same single-line gate as the get side: not worth planning.
            if nlines > 1 and self._fast and self.observer is None:
                fast = self._renewal_put(start, line0, nlines)
                if fast is None:
                    fast = self._fast_put(start, line0, nlines)
                first, done = fast
            for line in range(line0 + first, line0 + nlines):
                t = start if len(window) < win_size else max(start, window[0])
                t = bus_req(t, line_bytes)
                t = xbar_up(t, line_bytes)
                t = l2_write(line, t, refill=False)
                append(t)
                if t > done:
                    done = t
        else:
            shift = self._line_shift
            l2_write_partial = uncore.l2_write_partial
            for block_addr, block_size in self._blocks(addr, nbytes, stride,
                                                       block):
                for gran_addr, gran_size in self._granules(block_addr,
                                                           block_size):
                    t = start if len(window) < win_size \
                        else max(start, window[0])
                    t = bus_req(t, gran_size)
                    t = xbar_up(t, gran_size)
                    line = gran_addr >> shift
                    if gran_size == line_bytes and gran_addr % line_bytes == 0:
                        t = l2_write(line, t, refill=False)
                    else:
                        t = l2_write_partial(line, gran_size, t)
                    append(t)
                    if t > done:
                        done = t
        self._engine_free = done
        if self.trace_hook is not None:
            self.trace_hook("put", self.core_id, now_fs, start, done,
                            addr, nbytes)
        return done

    def drain_time(self, now_fs: int) -> int:
        """Time the engine goes quiet (for end-of-run settling).

        A program may terminate with commands still in flight (it never
        issued a ``dma_wait``); the bytes those commands move are counted
        at the DRAM pins, so the settle point must cover their completion
        or short runs can report an average bandwidth above the channel's
        capacity.
        """
        return max(now_fs, self._engine_free)

    def _granules(self, addr: int, nbytes: int) -> Iterable[tuple[int, int]]:
        """Split a block into line-aligned granules of at most one line."""
        line = self.line_bytes
        position = addr
        remaining = nbytes
        while remaining > 0:
            boundary = (position // line + 1) * line
            size = min(remaining, boundary - position)
            yield position, size
            position += size
            remaining -= size
