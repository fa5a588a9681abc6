"""Batched sweep engine: N lanes of one program in one stepping loop.

A sweep varies *operating-point* knobs — window size, memory
differential, issue widths, memory-model variant — over one compiled
program. The scalar engine (:mod:`repro.machines.engine`) simulates
those points one at a time, paying the full Python dispatch/issue loop
per point. This module stacks N such variants (*lanes*) of the same
:class:`~repro.machines.lowered.LoweredProgram` into 2-D NumPy arrays
(``lane x gid`` and ``lane x window-slot``) and advances every lane in
one vectorized stepping loop:

* **per-lane cycle counters** — lanes are independent simulations, so
  there is no global clock: each step advances every live lane
  straight to its own next event time, exactly like the scalar
  event-driven loops skip idle cycles;
* **masked completion** — finished lanes drop out of every mask and
  stop costing work while the rest drain;
* **lane-wise steady-state skip arming** — each lane checkpoints its
  own scheduler fingerprint at the shared structural period
  boundaries (:meth:`LoweredProgram.steady`) and, on a match, shifts
  its remaining full periods in O(window + dep span) row operations —
  the same accelerator the scalar fast loop carries, per lane
  (docs/timing.md, "Periodic steady state");
* **uniform memory** — each lane's fixed differential folds into its
  row of a lane x gid latency table, as the scalar path folds it into
  one table.

Any other memory model (stateful, or merely address-dependent), probe
runs, unlimited windows and degenerate batches fall back to the scalar
:func:`~repro.machines.engine.simulate` per lane — for such models
that lands in the existing speculative fixed point / chunked paths, so
a mixed batch still produces exactly the per-point results, just
grouped.

Within a cycle the scalar engine issues oldest-first and its
within-cycle issue order only reaches a memory model through chunked
(stateful) queries; uniform lanes therefore schedule
identically whether slots are walked heap-ordered or selected by gid
rank, which is what makes the slot-matrix formulation below exact.
The parity suite (tests/test_engine_batch.py) and the differential
fuzzer (tools/engine_fuzz.py) hold every field of every lane's
:class:`~repro.machines.engine.SimulationResult` bit-equal to the
scalar engines.

NumPy is an optional dependency, imported only when two or more
vectorizable lanes are about to run (:func:`load_numpy`). Without it
every lane takes the scalar fallback and results are unchanged — only
the vectorized throughput is lost.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter

from ..config import DEFAULT_LATENCIES, LatencyModel, UnitConfig
from ..errors import SimulationDeadlockError
from ..memory import MemorySystem
from ..obs.telemetry import RunTelemetry, add_counters, zero_counters
from ..partition.machine_program import MachineProgram, Unit
from . import engine as _engine
from .engine import SimulationResult, UnitStats
from .lowered import LoweredProgram

__all__ = ["BatchLane", "load_numpy", "simulate_batch", "vector_eligible"]

#: NumPy once :func:`load_numpy` has imported it.
_np = None

#: Lanes per vectorized run; larger batches are chunked. Bounds the
#: lane-major array footprint together with `_ELEM_BUDGET`. Wide
#: chunks are what make the loop pay: the per-step numpy dispatch
#: overhead is fixed, so throughput grows with the sweep-axis width —
#: and the step count is set by the slowest lane, not the lane count,
#: so doubling the chunk width costs well under 2x wall clock.
_MAX_BATCH_LANES = 256

#: Upper bound on ``lanes x total`` elements per vectorized run (the
#: big per-gid arrays are int64: 16M elements ~ 128 MB each).
_ELEM_BUDGET = 16_000_000

#: Windows past this size stop paying for slot-matrix vectorization
#: (and unlimited windows would allocate program-sized slot arrays).
_MAX_BATCH_WINDOW = 1024

#: Sentinel "never" ready time; far above any reachable cycle count
#: yet small enough that ``INF + d_t`` cannot overflow int64.
_NEVER = 1 << 60

#: Checkpoint budget before a lane is evicted to the scalar fallback.
#: Lanes that settle into the steady state match within one to three
#: period boundaries across the corpus; one that has not matched at
#: twice that is almost certainly aperiodic at this operating point
#: and would step cycle-by-cycle to the end — serializing every other
#: lane behind the shared loop. Rerunning it scalar from scratch is
#: bit-exact (that is the fallback contract) and strictly faster.
_EVICT_CHECKPOINTS = 6


@dataclass(frozen=True)
class BatchLane:
    """One operating point of a batch: unit configs plus a memory model.

    The program, the latency model and the probe switches are shared
    by the whole batch; everything point-specific lives here. Each
    lane's ``memory`` must be a distinct model instance — lanes are
    independent simulations and the engine resets and queries each
    lane's model exactly as a scalar run would.
    """

    unit_configs: dict[Unit, UnitConfig]
    memory: MemorySystem


def simulate_batch(
    program: MachineProgram,
    lanes: list[BatchLane],
    latencies: LatencyModel = DEFAULT_LATENCIES,
    collect_issue_times: bool = False,
) -> list[SimulationResult]:
    """Simulate every lane of ``lanes`` over one program, bit-exactly.

    Returns one :class:`SimulationResult` per lane, positionally
    aligned, each identical to
    ``simulate(program, lane.unit_configs, lane.memory, latencies)``.
    Vectorizable lanes (uniform memory, bounded windows)
    run stacked in the 2-D stepping loop; the rest fall back to the
    scalar engine one lane at a time (counted in each such lane's
    ``telemetry.counters["batch_fallback_lanes"]``).
    """
    low = program.lowered()
    results: list[SimulationResult | None] = [None] * len(lanes)
    vector = [
        index for index, lane in enumerate(lanes)
        if _vectorizable(low, lane, latencies)
    ]
    if len(vector) < 2 or not load_numpy():
        vector = []
    cap = _lane_cap(low.total)
    for start in range(0, len(vector), cap):
        chunk = vector[start: start + cap]
        if len(chunk) < 2:
            continue  # trailing singleton: scalar fallback below
        chunk_results = _run_vector(
            low, program, [lanes[i] for i in chunk], latencies,
            collect_issue_times,
        )
        for index, result in zip(chunk, chunk_results):
            results[index] = result
    for index, lane in enumerate(lanes):
        if results[index] is None:
            result = _engine.simulate(
                program, lane.unit_configs, lane.memory, latencies,
                collect_issue_times=collect_issue_times,
            )
            counters = dict(result.telemetry.counters)
            counters["batch_fallback_lanes"] += 1
            results[index] = replace(
                result,
                telemetry=replace(result.telemetry, counters=counters),
            )
    return results  # type: ignore[return-value]


def load_numpy() -> bool:
    """Import NumPy for the 2-D loop; False if it is not installed."""
    global _np
    if _np is None:
        try:
            import numpy as _np
        except ImportError:
            return False
    return True


def vector_eligible(memory: MemorySystem, window: int | None) -> bool:
    """Cheap planner predicate: would a lane with this shape vectorize?

    The session's batch planner calls this *before* compiling anything:
    lanes that would only fall back to the scalar engine (stateful
    memory, unlimited or oversized windows) are better left on the
    per-point path, where a process pool can still spread them —
    grouping them into one batch job would serialize them on a single
    worker for no vectorization win. It looks at the lane's shape only
    and never imports NumPy. Conservative by design: a False here costs
    nothing but the old dispatch; the authoritative check is
    :func:`_vectorizable` at simulation time.
    """
    if window is None or window > _MAX_BATCH_WINDOW:
        return False
    return memory.uniform_extra_latency() is not None


def _lane_cap(total: int) -> int:
    if total <= 0:
        return _MAX_BATCH_LANES
    return max(2, min(_MAX_BATCH_LANES, _ELEM_BUDGET // total))


def _vectorizable(
    low: LoweredProgram, lane: BatchLane, latencies: LatencyModel
) -> bool:
    """Whether a lane may join the 2-D loop (else: scalar fallback)."""
    if low.total == 0 or low.min_latency < 1:
        return False
    for unit in low.units:
        config = lane.unit_configs.get(unit)
        if config is None or config.window > _MAX_BATCH_WINDOW:
            return False
    # No accesses: any model degenerates to uniform.
    return (
        lane.memory.uniform_extra_latency() is not None
        or not low.memory_gids
    )


def _np_tables(low: LoweredProgram):
    """NumPy views of the lowered arrays (cached on the program)."""
    tables = low._np_cache
    if tables is None:
        cons_cnt = _np.fromiter(
            (len(c) for c in low.cons), count=low.total, dtype=_np.int64
        )
        cons_off = _np.zeros(low.total + 1, dtype=_np.int64)
        _np.cumsum(cons_cnt, out=cons_off[1:])
        cons_flat = _np.fromiter(
            (c for row in low.cons for c in row),
            count=int(cons_off[-1]), dtype=_np.int64,
        )
        tables = {
            # Narrow dtypes: operand counts are tiny and per-access
            # latencies fit comfortably in 32 bits; the lane-major
            # tiles of these tables dominate the setup footprint, so
            # halving them halves the page-faulted setup cost.
            "n_srcs": _np.frombuffer(low._n_srcs, dtype=_np.intc)
            .astype(_np.int16),
            "base_addlat": _np.asarray(low.base_addlat, dtype=_np.int32),
            "memory_gids": _np.asarray(low.memory_gids, dtype=_np.int64),
            "unit_index": _np.frombuffer(low._unit, dtype=_np.uint8)
            .astype(_np.int16),
            "cons_cnt": cons_cnt,
            "cons_off": cons_off,
            "cons_flat": cons_flat,
            "streams": [
                _np.asarray(gids, dtype=_np.int64)
                for gids in low.stream_gids
            ],
        }
        low._np_cache = tables
    return tables


def _lane_tables(lanes, latencies, tables):
    """Per-lane effective added-latency rows (lane x gid).

    Every vector lane's memory is uniform (or the program has no
    accesses), so one 2-D scatter writes each lane's
    ``mem_base + extra`` over the memory gids.
    """
    tab = _np.tile(tables["base_addlat"], (len(lanes), 1))
    for lane in lanes:
        lane.memory.reset()
    memory_gids = tables["memory_gids"]
    if len(memory_gids):
        vals = _np.asarray(
            [
                latencies.mem_base + lane.memory.uniform_extra_latency()
                for lane in lanes
            ],
            dtype=_np.int64,
        )
        tab[:, memory_gids] = vals[:, None]
    return tab


class _LaneSkip:
    """Per-lane steady-state checkpoint state (mirrors the scalar skip)."""

    __slots__ = (
        "start", "next_boundary", "prev_fp", "prev_boundary", "prev_t",
        "prev_icyc", "prev_issued", "checkpoints",
    )

    def __init__(self, start: int, period: int) -> None:
        self.start = start
        self.next_boundary = start + period
        self.prev_fp = None
        self.prev_boundary = -1
        self.prev_t = -1
        self.prev_icyc: tuple[int, ...] = ()
        self.prev_issued: tuple[int, ...] = ()
        self.checkpoints = 0


def _lane_steady_starts(low, tab, steady):
    """Verified per-lane skip starts, or None per lane (table check).

    The structural period ignores addresses, so each lane's latency
    table must itself repeat for that lane's skip to stay cycle-exact
    — the same verified-start raise the scalar fast loop applies,
    vectorized over the table row (uniform rows pass trivially).
    """
    total = low.total
    period = steady.period
    floor = 3 * period + steady.dep_span + 64
    starts: list[int | None] = []
    for row in tab:
        head = row[steady.start: total - period]
        tail = row[steady.start + period: total]
        mismatch = _np.nonzero(head != tail)[0]
        if mismatch.size:
            ok_from = steady.start + int(mismatch[-1]) + 1
        else:
            ok_from = steady.start
        starts.append(ok_from if total - ok_from >= floor else None)
    return starts


def _run_vector(
    low: LoweredProgram,
    program: MachineProgram,
    lanes: list[BatchLane],
    latencies: LatencyModel,
    collect_issue_times: bool,
) -> list["SimulationResult | None"]:
    """The 2-D stepping loop over one chunk of vectorizable lanes.

    ``None`` entries mark lanes evicted to the scalar fallback (their
    steady-state fingerprint never matched within the batch budget);
    the caller re-simulates those whole.
    """
    np = _np
    started = perf_counter()
    total = low.total
    units = low.units
    nu = len(units)
    n_lanes = len(lanes)
    tables = _np_tables(low)
    tab = _lane_tables(lanes, latencies, tables)
    cons_cnt = tables["cons_cnt"]
    cons_off = tables["cons_off"]
    cons_flat = tables["cons_flat"]
    unit_index = tables["unit_index"]
    streams = tables["streams"]
    slen = [int(s.size) for s in streams]

    # Lane-major per-gid state, flat views for integer-key scatters.
    pending = np.tile(tables["n_srcs"], (n_lanes, 1))
    pend_flat = pending.ravel()
    opmax = np.zeros((n_lanes, total), dtype=np.int64)
    opmax_flat = opmax.ravel()
    slot_of = np.full((n_lanes, total), -1, dtype=np.int32)
    slot_flat = slot_of.ravel()
    dispatched = np.zeros((n_lanes, total), dtype=bool)
    disp_flat = dispatched.ravel()
    issue_t = None
    if collect_issue_times:
        issue_t = np.full((n_lanes, total), -1, dtype=np.int64)
        issue_flat = issue_t.ravel()

    # Per-unit slot matrices: gid and ready time per window slot. A
    # slot is free when its gid is -1; a held slot with pending
    # operands keeps ready time _NEVER until its last operand lands.
    widths = [
        np.asarray(
            [lane.unit_configs[units[u]].width for lane in lanes],
            dtype=np.int64,
        )
        for u in range(nu)
    ]
    windows = [
        np.asarray(
            [lane.unit_configs[units[u]].window for lane in lanes],
            dtype=np.int64,
        )
        for u in range(nu)
    ]
    uniform_width = [
        int(widths[u].min()) == int(widths[u].max()) for u in range(nu)
    ]
    slots = [int(windows[u].max()) for u in range(nu)]
    sgid = [np.full((n_lanes, slots[u]), -1, dtype=np.int64) for u in range(nu)]
    sready = [
        np.full((n_lanes, slots[u]), _NEVER, dtype=np.int64)
        for u in range(nu)
    ]
    ptr = [np.zeros(n_lanes, dtype=np.int64) for _ in range(nu)]
    occ = [np.zeros(n_lanes, dtype=np.int64) for _ in range(nu)]
    issued_cnt = [np.zeros(n_lanes, dtype=np.int64) for _ in range(nu)]
    icyc = [np.zeros(n_lanes, dtype=np.int64) for _ in range(nu)]
    last_issue = [np.zeros(n_lanes, dtype=np.int64) for _ in range(nu)]

    t = np.zeros(n_lanes, dtype=np.int64)
    horizon = np.zeros(n_lanes, dtype=np.int64)
    fmax = np.full(n_lanes, -1, dtype=np.int64)
    lane_fill: list[tuple[int, int] | None] = [None] * n_lanes
    # Per-lane steady-skip contributions (skips, skipped instructions)
    # for the lane telemetry records.
    lane_skip: list[tuple[int, int]] = [(0, 0)] * n_lanes
    evicted: set[int] = set()

    # Lane-wise steady-state skip arming.
    steady = None
    if total >= _engine._SKIP_MIN_TOTAL:
        steady = low.steady()
    skip: list[_LaneSkip | None] = [None] * n_lanes
    # Next checkpoint boundary per lane (_NEVER once disarmed): one
    # vector compare per step finds the lanes whose dispatch frontier
    # crossed a period boundary, however many lanes are armed.
    nb_arr = np.full(n_lanes, _NEVER, dtype=np.int64)
    armed = 0
    if steady is not None:
        for index, start in enumerate(
            _lane_steady_starts(low, tab, steady)
        ):
            if start is not None:
                skip[index] = _LaneSkip(start, steady.period)
                nb_arr[index] = start + steady.period
                armed += 1

    def lane_fingerprint(lane: int, boundary: int):
        """Scheduler state of one lane relative to (boundary, t).

        The batch twin of the scalar engine's canonical checkpoint
        form (``_canonical`` over a ``_snapshot``): per-unit stream
        positions, occupancies and live (gid, ready) slot pairs —
        sorted by gid so slot indices, which are allocation
        artefacts, never enter the fingerprint — plus the relative
        pending/opmax/in-window state of every gid between the oldest
        live instruction and the dispatch frontier plus the dependence
        span.
        """
        tl = int(t[lane])
        lo = total
        for u in range(nu):
            live = sgid[u][lane][sgid[u][lane] >= 0]
            if live.size:
                lo = min(lo, int(live.min()))
            position = int(ptr[u][lane])
            if position < slen[u]:
                lo = min(lo, int(streams[u][position]))
        if lo == total:
            return None, lo, lo - 1
        hi = int(fmax[lane]) + steady.dep_span
        if hi >= total:
            return None, lo, hi
        unit_part = []
        for u in range(nu):
            position = int(ptr[u][lane])
            next_gid = (
                int(streams[u][position]) - boundary
                if position < slen[u] else -total
            )
            g_row = sgid[u][lane]
            r_row = sready[u][lane]
            live = np.nonzero(g_row >= 0)[0]
            g = g_row[live]
            r = r_row[live]
            order = np.argsort(g)  # gids are unique per lane
            rel_g = g[order] - boundary
            # Held (operand-pending) slots keep the _NEVER sentinel;
            # matured leftovers may sit below t, so times stay signed.
            rel_r = r[order]
            rel_r = np.where(rel_r < _NEVER, rel_r - tl, _NEVER)
            unit_part.append((
                next_gid, int(occ[u][lane]),
                rel_g.tobytes(), rel_r.tobytes(),
            ))
        region = slice(lo, hi + 1)
        om = opmax[lane, region]
        rel_om = np.where(om > 0, om - tl, _NEVER)
        in_window = slot_of[lane, region] >= 0
        fp = (
            lo - boundary,
            tuple(unit_part),
            pending[lane, region].tobytes(),
            rel_om.tobytes(),
            in_window.tobytes(),
        )
        return fp, lo, hi

    def lane_checkpoint(lane: int) -> str:
        """Fingerprint one lane at a crossed boundary; maybe shift it.

        Returns ``"armed"`` to keep checkpointing, ``"disarm"`` once
        the lane skipped, and ``"evict"`` when the lane blew the batch
        checkpoint budget and should finish on the scalar engine
        instead.
        """
        sk = skip[lane]
        boundary = sk.next_boundary
        period = steady.period
        while sk.next_boundary <= fmax[lane]:
            sk.next_boundary += period
        nb_arr[lane] = sk.next_boundary
        fp, lo, hi = lane_fingerprint(lane, boundary)
        matched = (
            fp is not None
            and fp == sk.prev_fp
            and boundary - sk.prev_boundary == period
            and t[lane] > sk.prev_t
            and lo >= sk.start
            and all(
                int(issued_cnt[u][lane]) - sk.prev_issued[u]
                == steady.unit_counts[u]
                for u in range(nu)
            )
        )
        if matched:
            dt = int(t[lane]) - sk.prev_t
            margin = 2 * period + steady.dep_span + 8
            k = (total - 1 - int(fmax[lane]) - margin) // period
            if k >= 1:
                d_gid = k * period
                d_t = k * dt
                for u in range(nu):
                    g_row = sgid[u][lane]
                    r_row = sready[u][lane]
                    live = g_row >= 0
                    g_row[live] += d_gid
                    r_row[live & (r_row < _NEVER)] += d_t
                    advance = k * steady.unit_counts[u]
                    ptr[u][lane] += advance
                    issued_cnt[u][lane] += advance
                    icyc[u][lane] += k * (
                        int(icyc[u][lane]) - sk.prev_icyc[u]
                    )
                source = slice(lo, hi + 1)
                target = slice(lo + d_gid, hi + 1 + d_gid)
                pending[lane, target] = pending[lane, source].copy()
                om = opmax[lane, source].copy()
                opmax[lane, target] = np.where(om > 0, om + d_t, 0)
                dispatched[lane, target] = dispatched[lane, source].copy()
                slot_of[lane, target] = slot_of[lane, source].copy()
                t[lane] += d_t
                fmax[lane] += d_gid
                # Fill telescopes by ONE period (every still-unissued
                # instruction issues ``dt`` after its one-period-earlier
                # counterpart), matching the scalar fast loop.
                lane_fill[lane] = (period, dt)
                lane_skip[lane] = (1, d_gid)
            return "disarm"
        sk.prev_fp = fp
        sk.prev_boundary = boundary
        sk.prev_t = int(t[lane])
        sk.prev_icyc = tuple(int(icyc[u][lane]) for u in range(nu))
        sk.prev_issued = tuple(int(issued_cnt[u][lane]) for u in range(nu))
        sk.checkpoints += 1
        if sk.checkpoints >= _EVICT_CHECKPOINTS:
            return "evict"
        return "armed"

    # Scratch buffers reused across steps; the arange cache serves the
    # segment bookkeeping of both scatter phases (read-only slices).
    force_next = np.zeros(n_lanes, dtype=bool)
    progress = np.zeros(n_lanes, dtype=bool)
    arange_buf = np.arange(1024, dtype=np.int64)

    def arange(n: int):
        nonlocal arange_buf
        if n > arange_buf.size:
            arange_buf = np.arange(
                max(n, 2 * arange_buf.size), dtype=np.int64
            )
        return arange_buf[:n]

    steps = 0
    while True:
        steps += 1
        force_next.fill(False)
        progress.fill(False)
        tcol = t[:, None]
        for u in range(nu):
            su_gid = sgid[u]
            su_ready = sready[u]
            wid = widths[u]
            # Issue phase: every slot whose ready time has matured, cut
            # to the per-lane width by gid rank (oldest first). The
            # common case — every matured batch fits its lane's width —
            # needs no ranking at all.
            mask = su_ready <= tcol
            counts = mask.sum(axis=1)
            over = counts > wid
            if over.any():
                force_next |= over
                rows = np.nonzero(over)[0]
                key = np.where(
                    mask[rows], su_gid[rows], np.int64(1 << 62)
                )
                issue = mask.copy()
                # Keep the `w` smallest gids per over-width row
                # (oldest first; gids are unique, so the w-th order
                # statistic is an exact cutoff). Rows group by their
                # width so each partition call uses one scalar kth —
                # with one shared width (the common sweep shape) that
                # is a single partition over all over-width rows.
                wids_r = wid[rows]
                if uniform_width[u]:
                    w = int(wids_r[0])
                    kth = np.partition(key, w - 1, axis=1)[:, w - 1: w]
                    issue[rows] = mask[rows] & (key <= kth)
                else:
                    for w in np.unique(wids_r):
                        sel = wids_r == w
                        kth = np.partition(key[sel], w - 1, axis=1)[
                            :, w - 1: w
                        ]
                        issue[rows[sel]] = mask[rows[sel]] & (
                            key[sel] <= kth
                        )
            else:
                issue = mask
            li, si = np.nonzero(issue)
            if li.size:
                gids = su_gid[li, si]
                tl = t[li]
                avail = tl + tab[li, gids]
                np.maximum.at(horizon, li, avail)
                if issue_t is not None:
                    issue_flat[li * total + gids] = tl
                su_gid[li, si] = -1
                su_ready[li, si] = _NEVER
                slot_flat[li * total + gids] = -1
                lane_counts = np.bincount(li, minlength=n_lanes)
                active = lane_counts > 0
                issued_cnt[u] += lane_counts
                icyc[u][active] += 1
                last_issue[u][active] = t[active]
                occ[u] -= lane_counts
                progress |= active
                # Consumer updates: decrement pending operand counts
                # and raise operand-availability maxima through the
                # CSR consumer table, then wake every consumer that
                # became ready inside a window.
                counts_e = cons_cnt[gids]
                n_edges = int(counts_e.sum())
                if n_edges:
                    seg = arange(gids.size).repeat(counts_e)
                    starts = counts_e.cumsum() - counts_e
                    e_cons = cons_flat[
                        (cons_off[gids] - starts).repeat(counts_e)
                        + arange(n_edges)
                    ]
                    e_lane = li[seg]
                    e_key = e_lane * total + e_cons
                    np.subtract.at(pend_flat, e_key, 1)
                    np.maximum.at(opmax_flat, e_key, avail[seg])
                    e_slot = slot_flat[e_key]
                    wake = (pend_flat[e_key] == 0) & (e_slot >= 0)
                    if wake.any():
                        w_lane = e_lane[wake]
                        w_slot = e_slot[wake]
                        w_time = opmax_flat[e_key[wake]]
                        if nu == 1:
                            sready[0][w_lane, w_slot] = w_time
                        else:
                            w_unit = unit_index[e_cons[wake]]
                            for uu in range(nu):
                                m = w_unit == uu
                                if m.any():
                                    sready[uu][w_lane[m], w_slot[m]] = (
                                        w_time[m]
                                    )
            # Dispatch phase: in order, up to width, into freed slots.
            room = windows[u] - occ[u]
            n = np.minimum(np.minimum(wid, room), slen[u] - ptr[u])
            dl = np.nonzero(n > 0)[0]
            if dl.size:
                nd = n[dl]
                n_disp = int(nd.sum())
                ends = nd.cumsum()
                d_gids = streams[u][
                    (ptr[u][dl] - (ends - nd)).repeat(nd)
                    + arange(n_disp)
                ]
                # Allocate the first nd[l] free slots of each lane;
                # nonzero walks rows in order, so the (lane, slot)
                # pairs align with the (lane, gid) pairs above.
                free = su_gid[dl] == -1
                free_rank = free.cumsum(axis=1)
                take = free & (free_rank <= nd[:, None])
                fl, fs = np.nonzero(take)
                d_lane = dl[fl]
                d_key = d_lane * total + d_gids
                su_gid[d_lane, fs] = d_gids
                disp_flat[d_key] = True
                slot_flat[d_key] = fs
                ready_at = np.where(
                    pend_flat[d_key] == 0,
                    np.maximum(opmax_flat[d_key], t[d_lane] + 1),
                    _NEVER,
                )
                su_ready[d_lane, fs] = ready_at
                ptr[u][dl] += nd
                occ[u][dl] += nd
                progress[dl] = True
                fmax[dl] = np.maximum(fmax[dl], d_gids[ends - 1])
                blocked = (
                    (nd == wid[dl])
                    & (ptr[u][dl] < slen[u])
                    & (occ[u][dl] < windows[u][dl])
                )
                force_next[dl[blocked]] = True

        # Steady-state checkpoints for lanes whose dispatch frontier
        # crossed a period boundary this step.
        if armed:
            for lane in np.nonzero(fmax >= nb_arr)[0]:
                lane = int(lane)
                verdict = lane_checkpoint(lane)
                if verdict == "armed":
                    continue
                skip[lane] = None
                nb_arr[lane] = _NEVER
                armed -= 1
                if verdict == "evict":
                    # Retire the lane from every mask; the scalar
                    # fallback in simulate_batch re-runs it whole.
                    evicted.add(lane)
                    for u in range(nu):
                        ptr[u][lane] = slen[u]
                        occ[u][lane] = 0
                        sgid[u][lane] = -1
                        sready[u][lane] = _NEVER

        # Per-lane clock advance: straight to each lane's next event.
        outstanding = occ[0] + (slen[0] - ptr[0])
        nxt = sready[0].min(axis=1)
        for u in range(1, nu):
            outstanding = outstanding + occ[u] + (slen[u] - ptr[u])
            np.minimum(nxt, sready[u].min(axis=1), out=nxt)
        alive = outstanding > 0
        if not alive.any():
            break
        # Lanes with leftover matured slots (over-width) or blocked
        # width re-scan next cycle; their stale ready times would
        # otherwise hold the clock in the past. Everything scheduled
        # this step lies at >= t + 1, so t + 1 is exact, not a floor.
        nxt = np.where(force_next, t + 1, nxt)
        stuck = alive & (nxt >= _NEVER)
        if stuck.any():
            dead = stuck & ~progress
            if dead.any():
                lane = int(np.nonzero(dead)[0][0])
                raise SimulationDeadlockError(
                    f"no unit can make progress at cycle {int(t[lane])} "
                    f"with {int(outstanding[lane])} instructions "
                    f"outstanding (batch lane {lane})"
                )
            # Progress happened but nothing is scheduled: re-scan next
            # cycle (only reachable through dispatch races).
            nxt = np.where(stuck, t + 1, nxt)
        t = np.where(alive, nxt, t)

    elapsed = perf_counter() - started
    survivors = n_lanes - len(evicted)
    # Counter attribution: each surviving lane carries batch_lanes=1
    # plus its own steady-skip contribution; the chunk-level
    # batch_runs/batch_steps ride on the chunk's first surviving lane,
    # so summing lane records reproduces the chunk totals exactly.
    chunk_counters_pending = True
    results = []
    for index, lane in enumerate(lanes):
        if index in evicted:
            results.append(None)
            continue
        issue_times = None
        if issue_t is not None:
            row = issue_t[index]
            if lane_fill[index] is not None:
                # Fill the issue times of the skipped iterations by
                # telescoping, exactly like the scalar fast loop.
                d_gid, d_t = lane_fill[index]
                values = row.tolist()
                for gid in range(total):
                    if values[gid] < 0:
                        values[gid] = values[gid - d_gid] + d_t
                issue_times = {gid: values[gid] for gid in range(total)}
            else:
                issue_times = {
                    gid: int(row[gid]) for gid in range(total)
                }
        unit_stats = {
            units[u]: UnitStats(
                unit=units[u],
                instructions=int(issued_cnt[u][index]),
                last_issue=int(last_issue[u][index]),
                issue_cycles=int(icyc[u][index]),
            )
            for u in range(nu)
        }
        counters = zero_counters()
        counters["batch_lanes"] = 1
        skips, skipped = lane_skip[index]
        add_counters(
            counters,
            {"steady_skips": skips, "skipped_instructions": skipped},
        )
        if chunk_counters_pending:
            add_counters(counters, {"batch_runs": 1, "batch_steps": steps})
            chunk_counters_pending = False
        results.append(SimulationResult(
            name=program.name,
            cycles=int(horizon[index]),
            instructions=total,
            unit_stats=unit_stats,
            issue_times=issue_times,
            meta={"memory": lane.memory.describe(), **program.meta},
            telemetry=RunTelemetry(
                strategy="batch",
                counters=counters,
                memory_stats=dict(lane.memory.stats()),
                wall_seconds=elapsed / survivors if survivors else 0.0,
                sim_cycles=int(horizon[index]),
            ),
        ))
    return results
