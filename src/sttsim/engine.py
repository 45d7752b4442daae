"""In-order trace simulation: latency, energy breakdown and operating-point
sweeps.

The timing model is blocking and in-order: non-memory instructions cost
base_cpi cycles each, memory accesses cost their cache stall. Energy is split
into cache dynamic, cache leakage, core dynamic (C x V^2 per active cycle)
and core static (voltage-dependent power over the wall time).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cache import CacheState, CacheStats, lru_hits
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
        if self.effective_capacitance_f <= 0:
            raise ValueError("effective capacitance must be > 0")
        pts = tuple(sorted(self.static_points))
        if not pts:
            raise ValueError("static power needs at least one point")
        if any(w < 0 for _, w in pts):
            raise ValueError("static power must be non-negative")
        object.__setattr__(self, "static_points", pts)

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


def _window(gaps, limit: int) -> tuple[int, int]:
    """(accesses, non-memory instructions after the last of them) that fit
    in the first `limit` instructions."""
    done = 0
    for i, gap in enumerate(gaps):
        if done + gap >= limit:
            return i, limit - done
        done += gap + 1
        if done >= limit:
            return i + 1, 0
    return len(gaps), 0


def _shadow_hits(trace: Trace, geometry, first: int) -> bytearray:
    """The infinite-retention hit bits of the trace's accesses from `first`
    on, computed once per trace: a `limit` run reads a prefix of them."""
    key = (geometry, first)
    bits = trace._shadow_bits.get(key)
    if bits is None:
        addrs = memoryview(trace.addrs)[first:]
        bits = trace._shadow_bits[key] = lru_hits(addrs, geometry)
    return bits


def simulate_run(trace: Trace, core: CoreSpec, freq_ghz: float,
                 power: PowerModel, limit: int | None = None,
                 start: int = 0) -> RunResult:
    """Run `trace` on `core` at a fixed grid frequency.

    `limit` caps the simulated instruction count (profiling windows);
    `start` skips that many leading instructions and begins with cold
    caches, which is how a migrated application resumes on a new core.
    Deterministic: identical inputs give bit-identical results.
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

    gaps, writes, addrs = trace.gaps, trace.writes, trace.addrs
    first = 0
    if start:
        # Skip the accesses that end at or before `start`; the first one
        # left keeps only the part of its gap after `start`.
        pos = 0
        while first < len(gaps) and pos + gaps[first] + 1 <= start:
            pos += gaps[first] + 1
            first += 1
        gaps, writes, addrs = gaps[first:], writes[first:], addrs[first:]
        if gaps:
            gaps[0] -= start - pos
    count, tail = (len(gaps), 0) if limit is None else _window(gaps, limit)
    if count < len(gaps):
        gaps, writes, addrs = gaps[:count], writes[:count], addrs[:count]

    cache = CacheState(core, freq_ghz)
    shadow = _shadow_hits(trace, core.geometry, first) if cache.volatile else None
    cpi = core.base_cpi
    ns_per_cycle = 1.0 / freq_ghz
    cycles = cache.replay(gaps, writes, addrs, shadow, 0.0, cpi, ns_per_cycle)
    if tail:
        cycles += tail * cpi
    nonmem = sum(gaps) + tail
    penalty_stalls = cache.stats.misses * cache.penalty_cycles

    cache.advance_retention(cycles * ns_per_cycle)
    cache.stats.settle_idle(cycles)

    wall_time_s = cycles * ns_per_cycle * 1e-9
    active = cycles - penalty_stalls
    cache_dyn, cache_leak = cache_energy(cache.stats, cache.tech, wall_time_s)
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
        stats=cache.stats,
    )


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[RunResult, ...]
    best: RunResult
    deadline_s: float
    violation: bool

    @property
    def best_core(self) -> str:
        return self.best.core_id


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
                     constraint: Constraint, deadline_s: float | None = None,
                     limit: int | None = None) -> SweepResult:
    """Simulate every core at every admissible grid frequency and pick the
    constraint-feasible energy minimum."""
    rows = []
    for core in system.cores:
        for freq in core.dvfs.grid():
            rows.append(simulate_run(trace, core, freq, power, limit=limit))
    best, deadline_s, violation = select_best(rows, system, constraint, deadline_s)
    return SweepResult(tuple(rows), best, deadline_s, violation)


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
