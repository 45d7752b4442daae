"""In-order trace simulation: latency, energy breakdown and operating-point
sweeps.

The timing model is blocking and in-order: non-memory instructions cost
base_cpi cycles each, memory accesses cost their cache stall. Energy is split
into cache dynamic, cache leakage, core dynamic (C x V^2 per active cycle)
and core static (voltage-dependent power over the wall time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cache import CacheState, CacheStats, ShadowPass
from .config import CoreSpec, MemTechnology, System, voltage_for_frequency
from .constraints import Constraint
from .trace import Trace


@dataclass(frozen=True)
class PowerModel:
    """Parametric core power: switching capacitance plus a static-power curve
    sampled at (voltage, watts) points with linear interpolation between them."""

    effective_capacitance_f: float = 5e-12
    static_points: tuple[tuple[float, float], ...] = ((0.9, 0.35), (1.35, 0.50))

    def __post_init__(self):
        if not 0 < self.effective_capacitance_f < math.inf:
            raise ValueError("effective capacitance must be finite and > 0")
        if not self.static_points:
            raise ValueError("static power needs at least one point")
        if not all(0 < v < math.inf and 0 <= w < math.inf
                   for v, w in self.static_points):
            raise ValueError("static power points need finite voltages > 0 "
                             "and finite powers >= 0")
        object.__setattr__(self, "static_points",
                           tuple(sorted(self.static_points)))

    def static_power_w(self, voltage_v: float) -> float:
        pts = self.static_points
        if voltage_v <= pts[0][0]:
            return pts[0][1]
        if voltage_v >= pts[-1][0]:
            return pts[-1][1]
        for (v0, w0), (v1, w1) in zip(pts, pts[1:]):
            if v0 <= voltage_v <= v1:
                if v1 == v0:
                    return w0
                return w0 + (voltage_v - v0) * (w1 - w0) / (v1 - v0)
        raise AssertionError("unreachable")


@dataclass(frozen=True)
class RunResult:
    trace_name: str
    core_id: str
    freq_ghz: float
    voltage_v: float
    instructions: int
    nonmem_instructions: int
    mem_accesses: int
    cycles: float
    active_cycles: float
    wall_time_s: float
    cache_dynamic_j: float
    cache_leakage_j: float
    core_dynamic_j: float
    core_static_j: float
    total_energy_j: float
    edp_js: float
    stats: CacheStats


def cache_energy(stats: CacheStats, tech: MemTechnology,
                 wall_time_s: float) -> tuple[float, float]:
    """(dynamic, leakage) joules for one cache over a run.

    Dynamic counts every array operation: reads are read accesses, writes are
    fills, write hits and both kinds of write-back.
    """
    if wall_time_s < 0:
        raise ValueError("wall time must be >= 0")
    dynamic = (stats.cache_reads * tech.read_energy_j
               + stats.cache_writes * tech.write_energy_j)
    leakage = tech.leakage_w * wall_time_s
    return dynamic, leakage


def processor_energy(active_cycles: float, wall_time_s: float, core: CoreSpec,
                     freq_ghz: float, power: PowerModel) -> tuple[float, float]:
    """(core dynamic, core static) joules.

    Dynamic is C x V^2 per active cycle (cycles not spent waiting on DRAM);
    static is the voltage-dependent power integrated over the wall time.
    """
    voltage = voltage_for_frequency(core.dvfs, freq_ghz)
    dynamic = power.effective_capacitance_f * voltage * voltage * active_cycles
    static = power.static_power_w(voltage) * wall_time_s
    return dynamic, static


def edp(energy_j: float, wall_time_s: float) -> float:
    if energy_j < 0 or wall_time_s < 0:
        raise ValueError("energy and wall time must be >= 0")
    return energy_j * wall_time_s


def _window(trace: Trace, start: int, limit: int | None):
    """(first, cut, count, tail, nonmem) of the run of `limit` instructions
    (None: all the rest) from instruction `start`: it begins with the last
    `gaps[first] - cut` instructions of access `first`'s gap, holds `count`
    accesses, ends with `tail` non-memory instructions and has `nonmem` in
    all. Computed once per trace and window: a scheduler asks for the same
    window at every grid frequency."""
    key = (start, limit)
    window = trace._windows.get(key)
    if window is None:
        gaps, n = trace.gaps, len(trace)
        # Skip the accesses that end at or before `start`.
        first = pos = 0
        while first < n and pos + gaps[first] + 1 <= start:
            pos += gaps[first] + 1
            first += 1
        cut, end, tail = start - pos, n, 0
        if limit is not None:
            # Take the accesses whose own instruction comes before `stop`.
            stop, end = start + limit, first
            while end < n and pos + gaps[end] < stop:
                pos += gaps[end] + 1
                end += 1
            if end < n:
                tail = stop - max(pos, start)
        nonmem = (sum(memoryview(gaps)[first:end]) + tail
                  - (cut if end > first else 0))
        window = trace._windows[key] = first, cut, end - first, tail, nonmem
    return window


def _pass(trace: Trace, geometry, first: int) -> ShadowPass:
    """The trace's `ShadowPass` from access `first` on, made once per trace:
    every run that starts at that access reads a prefix of it."""
    key = (geometry, first)
    if key not in trace._passes:
        trace._passes[key] = ShadowPass(geometry, *(
            memoryview(column)[first:]
            for column in (trace.gaps, trace.writes, trace.addrs)))
    return trace._passes[key]


def simulate_run(trace: Trace, core: CoreSpec, freq_ghz: float,
                 power: PowerModel, limit: int | None = None,
                 start: int = 0) -> RunResult:
    """Run `trace` on `core` at a fixed grid frequency.

    `limit` caps the simulated instruction count (profiling windows);
    `start` skips that many leading instructions and begins with cold
    caches, which is how a migrated application resumes on a new core.
    Every run, on any core, whole or a window, reads the trace's
    `ShadowPass` from its first access (`_pass`) and takes one route: it is
    derived if no block can expire in it, as in every SRAM run with an
    integer `base_cpi`, or, from its pass's second refusal on, if every
    access misses; else it is replayed, its misses classified by the pass's
    codes. Deterministic: identical inputs give bit-identical results.
    """
    if not len(trace):
        raise ValueError("trace is empty")
    if not core.dvfs.on_grid(freq_ghz):
        raise ValueError(
            f"{freq_ghz} GHz is outside {core.core_id}'s DVFS grid "
            f"(cap {core.freq_cap_ghz} GHz, step {core.dvfs.step_ghz})")
    if start < 0:
        raise ValueError("start must be >= 0")
    if limit is not None:
        limit = int(limit)
        if limit <= 0:
            raise ValueError("limit must be positive")

    first, cut, count, tail, nonmem = _window(trace, start, limit)
    cache = CacheState(core, freq_ghz)
    cpi = core.base_cpi
    ns_per_cycle = 1.0 / freq_ghz
    gaps, writes, addrs = trace.gaps, trace.writes, trace.addrs
    end = first + count
    part = count < len(gaps) or cut
    if part:
        # The first access keeps only the part of its gap after `start`.
        gaps, writes = gaps[first:end], writes[first:end]
        if count:
            gaps[0] -= cut
    shadow = _pass(trace, core.geometry, first)
    cycles = cache.derive(shadow, gaps, writes, nonmem, cpi, ns_per_cycle)
    if cycles is None and next(shadow.refusals) > 1:
        cycles = cache.derive_misses(shadow, gaps, writes, tail, nonmem, cpi,
                                     ns_per_cycle)
    if cycles is None:
        if part:
            addrs = addrs[first:end]
        cycles = cache.replay(gaps, writes, addrs, shadow.codes, 0.0, cpi,
                              ns_per_cycle) + tail * cpi
        cache.advance_retention(cycles * ns_per_cycle)
    stats = cache.stats
    penalty_stalls = stats.misses * cache.penalty_cycles
    busy = stats.mem_busy_read_cycles + stats.mem_busy_write_cycles
    stats.mem_idle_cycles = int(max(0, cycles - busy))

    wall_time_s = cycles * ns_per_cycle * 1e-9
    active = cycles - penalty_stalls
    cache_dyn, cache_leak = cache_energy(stats, cache.tech, wall_time_s)
    core_dyn, core_stat = processor_energy(active, wall_time_s, core, freq_ghz, power)
    total = cache_dyn + cache_leak + core_dyn + core_stat
    return RunResult(
        trace_name=trace.name,
        core_id=core.core_id,
        freq_ghz=freq_ghz,
        voltage_v=voltage_for_frequency(core.dvfs, freq_ghz),
        instructions=nonmem + count,
        nonmem_instructions=nonmem,
        mem_accesses=count,
        cycles=cycles,
        active_cycles=active,
        wall_time_s=wall_time_s,
        cache_dynamic_j=cache_dyn,
        cache_leakage_j=cache_leak,
        core_dynamic_j=core_dyn,
        core_static_j=core_stat,
        total_energy_j=total,
        edp_js=edp(total, wall_time_s),
        stats=stats,
    )


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[RunResult, ...]
    best: RunResult
    deadline_s: float
    violation: bool


def select_best(rows, system: System, constraint: Constraint,
                deadline_s: float | None = None):
    """Pick the lowest-energy row meeting the deadline.

    The deadline defaults to the constraint's slack over the fastest row.
    Ties break toward lower latency, then lower core index. When nothing is
    feasible the fastest row is returned with a violation flag.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to select from")
    best_latency = min(r.wall_time_s for r in rows)
    if deadline_s is None:
        deadline_s = constraint.deadline(best_latency)
    feasible = [r for r in rows if r.wall_time_s <= deadline_s]
    if feasible:
        best = min(feasible, key=lambda r: (r.total_energy_j, r.wall_time_s,
                                            system.core_index(r.core_id)))
        return best, deadline_s, False
    fastest = min(rows, key=lambda r: (r.wall_time_s,
                                       system.core_index(r.core_id)))
    return fastest, deadline_s, True


def exhaustive_sweep(trace: Trace, system: System, power: PowerModel,
                     constraint: Constraint,
                     deadline_s: float | None = None) -> SweepResult:
    """Simulate every core at every admissible grid frequency, in point
    order in this process, and pick the constraint-feasible energy minimum.
    The cores of one geometry share one `ShadowPass`, so a sweep makes each
    shadow pass and its `miss_facts` at most once."""
    rows = tuple(simulate_run(trace, core, freq, power)
                 for core in system.cores for freq in core.dvfs.grid())
    best, deadline_s, violation = select_best(rows, system, constraint, deadline_s)
    return SweepResult(rows, best, deadline_s, violation)


def pareto_flags(rows) -> list[bool]:
    """True for rows on the (energy, latency) Pareto front."""
    flags = []
    for r in rows:
        dominated = any(
            (o.total_energy_j <= r.total_energy_j and o.wall_time_s <= r.wall_time_s)
            and (o.total_energy_j < r.total_energy_j or o.wall_time_s < r.wall_time_s)
            for o in rows)
        flags.append(not dominated)
    return flags
