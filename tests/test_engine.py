import hashlib
import math
import os
import random
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings, strategies as st

from sttsim import engine
from sttsim import (CacheGeometry, CacheState, CacheStats, Constraint,
                    PowerModel, STT_10US, SRAM, SynthParams, System, Trace,
                    TraceEvent, UniformGaps, access_cycles, cache_energy,
                    default_system, edp, exhaustive_sweep, gen_synthetic,
                    pareto_flags, processor_energy, simulate_run, sram_system)
from sttsim.trace import READ, WRITE

from reference import reference_run
from workloads import ARCHETYPES, PROFILING_INTERVAL, archetype_params


def one_gap_trace(gap, op=READ, addr=0x40):
    return Trace((TraceEvent(gap, op, addr),), name="tiny")


def rand_trace(seed, events=400, blocks=64, max_gap=3000, wf=0.4):
    rng = random.Random(seed)
    evs = [TraceEvent(rng.randrange(max_gap),
                      WRITE if rng.random() < wf else READ,
                      0x4000 + 64 * rng.randrange(blocks))
           for _ in range(events)]
    return Trace(tuple(evs), name=f"rand-{seed}")


class TestTiming:
    def test_pure_compute_window(self, system, power):
        # 1000 non-memory instructions at 2 GHz: 1000 cycles, 500 ns.
        run = simulate_run(one_gap_trace(5000), system.core("core3"), 2.0,
                           power, limit=1000)
        assert run.instructions == 1000
        assert run.cycles == 1000
        assert run.wall_time_s == pytest.approx(500e-9, rel=1e-12)
        assert run.mem_accesses == 0

    def test_stall_accounting_identity(self, system, power):
        for seed in range(6):
            tr = rand_trace(seed)
            for label, freq in (("core1", 1.6), ("core4", 0.8), ("core4", 2.0)):
                core = system.core(label)
                run = simulate_run(tr, core, freq, power)
                st = run.stats
                rc = core.read_cycles(freq)
                wc = core.write_cycles(freq)
                pc = math.ceil(round(freq * core.miss_penalty_ns, 9))
                stalls = (st.read_hits * rc + st.write_hits * wc
                          + st.read_misses * (rc + pc)
                          + st.write_misses * (wc + pc))
                assert run.cycles == core.base_cpi * run.nonmem_instructions + stalls

    def test_wall_time_matches_cycles(self, system, power):
        run = simulate_run(rand_trace(1), system.core("core2"), 1.2, power)
        assert run.wall_time_s == run.cycles / 1.2 * 1e-9

    def test_limit_is_exact(self, system, power):
        tr = rand_trace(2)
        run = simulate_run(tr, system.core("core1"), 1.6, power, limit=1234)
        assert run.instructions == 1234

    def test_start_resumes_cold(self, system, power):
        tr = rand_trace(3)
        total = tr.instructions
        head = simulate_run(tr, system.core("core1"), 1.6, power, limit=1000)
        rest = simulate_run(tr, system.core("core1"), 1.6, power, start=1000)
        assert head.instructions + rest.instructions == total

    def test_frequency_must_be_on_the_core_grid(self, system, power):
        tr = one_gap_trace(10)
        with pytest.raises(ValueError):
            simulate_run(tr, system.core("core1"), 1.8, power)  # above cap
        with pytest.raises(ValueError):
            simulate_run(tr, system.core("core3"), 1.5, power)  # off grid

    def test_empty_trace_rejected(self, system, power):
        with pytest.raises(ValueError):
            simulate_run(Trace(()), system.core("core1"), 1.6, power)

    def test_determinism(self, system, power):
        tr = rand_trace(4)
        a = simulate_run(tr, system.core("core4"), 2.0, power)
        b = simulate_run(tr, system.core("core4"), 2.0, power)
        assert a == b

    def test_expiration_miss_disappears_at_higher_frequency(self, system, power):
        # Three reads of one block; the reuse gap spans the block lifetime at
        # 0.8 GHz but not at 1.6 GHz.
        tr = Trace((TraceEvent(0, READ, 0x40), TraceEvent(3000, READ, 0x40),
                    TraceEvent(5500, READ, 0x40)), name="fig")
        core1 = system.core("core1")
        slow = simulate_run(tr, core1, 0.8, power)
        fast = simulate_run(tr, core1, 1.6, power)
        assert slow.stats.expiration_misses == 1
        assert fast.stats.expiration_misses == 0


class TestEnergy:
    def test_hand_counted_dynamic_energy(self):
        st = CacheStats(read_hits=1000, write_hits=500)
        dyn, _ = cache_energy(st, STT_10US, 0.0)
        assert dyn == pytest.approx(16e-9, rel=1e-12)

    def test_idle_leakage(self):
        stt_dyn, stt_leak = cache_energy(CacheStats(), STT_10US, 1e-3)
        sram_dyn, sram_leak = cache_energy(CacheStats(), SRAM, 1e-3)
        assert stt_dyn == 0.0 and sram_dyn == 0.0
        assert stt_leak == pytest.approx(13.1448e-6, rel=1e-12)
        assert sram_leak == pytest.approx(50.328e-6, rel=1e-12)
        assert abs(sram_leak / stt_leak - 3.829) < 1e-3

    def test_writes_count_fills_and_writebacks(self):
        st = CacheStats(write_hits=10, mem_read_hits=5, writebacks=3,
                        early_writebacks=2)
        dyn, _ = cache_energy(st, STT_10US, 0.0)
        assert dyn == pytest.approx(20 * 0.026e-9, rel=1e-12)

    def test_negative_wall_time_rejected(self):
        with pytest.raises(ValueError):
            cache_energy(CacheStats(), STT_10US, -1.0)

    def test_zero_active_cycles(self, system, power):
        dyn, _ = processor_energy(0.0, 1e-3, system.core("core3"), 2.0, power)
        assert dyn == 0.0

    def test_capacitance_linearity(self, system, power):
        doubled = PowerModel(effective_capacitance_f=2 * power.effective_capacitance_f,
                             static_points=power.static_points)
        core = system.core("core3")
        d1, s1 = processor_energy(5000.0, 1e-6, core, 2.0, power)
        d2, s2 = processor_energy(5000.0, 1e-6, core, 2.0, doubled)
        assert d2 == pytest.approx(2 * d1, rel=1e-12)
        assert s2 == s1

    def test_voltage_squared_scaling(self, system, power):
        # Same trace at the two voltage endpoints: dynamic-energy ratio is
        # (V1^2 x active1) / (V2^2 x active2).
        tr = rand_trace(5)
        core = system.core("core4")
        lo = simulate_run(tr, core, 0.8, power)
        hi = simulate_run(tr, core, 2.0, power)
        expect = (0.9 ** 2 * lo.active_cycles) / (1.35 ** 2 * hi.active_cycles)
        assert lo.core_dynamic_j / hi.core_dynamic_j == pytest.approx(expect, rel=1e-12)

    def test_energy_conservation(self, system, power):
        run = simulate_run(rand_trace(6), system.core("core2"), 1.0, power)
        total = (run.cache_dynamic_j + run.cache_leakage_j
                 + run.core_dynamic_j + run.core_static_j)
        assert run.total_energy_j == total

    def test_edp(self):
        assert edp(2.0, 3.0) == 6.0
        assert edp(0.0, 5.0) == 0.0
        with pytest.raises(ValueError):
            edp(-1.0, 1.0)

    def test_run_edp_is_definitional(self, system, power):
        run = simulate_run(rand_trace(7), system.core("core1"), 0.8, power)
        assert run.edp_js == edp(run.total_energy_j, run.wall_time_s)


class TestSweep:
    def test_single_core_system(self, power):
        sys1 = System(cores=(default_system().core("core2"),))
        tr = rand_trace(8)
        sweep = exhaustive_sweep(tr, sys1, power, Constraint("none"))
        assert sweep.best_core == "core2"
        assert len(sweep.rows) == len(sys1.cores[0].dvfs.grid())

    def test_hit_dominated_write_free_prefers_top_frequency(self, system, power):
        # All cache terms equal across cores once expiry is out of reach:
        # the winner is the max-frequency, lowest-static point.
        params = SynthParams(working_set_blocks=4, reuse_gaps=UniformGaps(80, 120),
                             write_fraction=0.0, memory_op_fraction=0.04,
                             total_instructions=5000, seed=3)
        tr = gen_synthetic(params)
        sweep = exhaustive_sweep(tr, system, power, Constraint("none"))
        assert sweep.best.freq_ghz == 2.0
        assert sweep.best.core_id == "core3"  # core-index tie-break vs core4
        assert sweep.best.stats.expiration_misses == 0

    def test_long_reuse_gaps_punish_short_retention(self, system, power):
        # ~50us reuse at 0.8 GHz: expiration write-backs dominate the 10us
        # core, so both longer-retention cores beat it.
        params = SynthParams(working_set_blocks=400,
                             reuse_gaps=UniformGaps(35_000, 45_000),
                             write_fraction=0.3, memory_op_fraction=0.01,
                             total_instructions=400_000, seed=5)
        tr = gen_synthetic(params)
        sweep = exhaustive_sweep(tr, system, power, Constraint("none"))
        best = {}
        for row in sweep.rows:
            if (row.core_id not in best
                    or row.total_energy_j < best[row.core_id].total_energy_j):
                best[row.core_id] = row
        assert best["core3"].total_energy_j < best["core1"].total_energy_j
        assert best["core4"].total_energy_j < best["core1"].total_energy_j
        assert best["core1"].stats.early_writebacks > 0

    def test_sram_misses_are_frequency_invariant(self, power):
        core = sram_system().cores[0]
        tr = rand_trace(9, blocks=800)  # force real evictions
        misses = {simulate_run(tr, core, f, power).stats.misses
                  for f in core.dvfs.grid()}
        assert len(misses) == 1

    def test_deadline_violation_flags_fastest(self, system, power):
        tr = rand_trace(10)
        sweep = exhaustive_sweep(tr, system, power, Constraint("slack10"),
                                 deadline_s=1e-12)
        assert sweep.violation
        fastest = min(sweep.rows, key=lambda r: r.wall_time_s)
        assert sweep.best.wall_time_s == fastest.wall_time_s

    def test_derived_deadline_is_always_feasible(self, system, power):
        tr = rand_trace(11)
        for kind in ("best-perf", "slack10", "slack20", "none"):
            sweep = exhaustive_sweep(tr, system, power, Constraint(kind))
            assert not sweep.violation
            assert sweep.best.wall_time_s <= sweep.deadline_s

    def test_pareto_flags(self):
        class Row:
            def __init__(self, e, t):
                self.total_energy_j = e
                self.wall_time_s = t
        rows = [Row(1, 3), Row(2, 2), Row(3, 1), Row(3, 3)]
        assert pareto_flags(rows) == [True, True, True, False]

    def test_select_best_prefers_energy_then_latency_then_index(self, system, power):
        tr = rand_trace(12)
        sweep = exhaustive_sweep(tr, system, power, Constraint("none"))
        best = sweep.best
        for row in sweep.rows:
            key = (row.total_energy_j, row.wall_time_s,
                   system.core_index(row.core_id))
            best_key = (best.total_energy_j, best.wall_time_s,
                        system.core_index(best.core_id))
            assert best_key <= key


def toy_cores(draw, cpis):
    """A random toy core: 1-4 ways, 1-8 sets, 16 or 64-byte lines, SRAM or
    a 0.2-12 us retention with k 2-6, and a base CPI from `cpis`."""
    ways = draw(st.sampled_from([1, 2, 4]))
    sets = draw(st.sampled_from([1, 2, 4, 8]))
    line = draw(st.sampled_from([16, 64]))
    tech = draw(st.sampled_from([SRAM, STT_10US]))
    if tech.is_volatile:
        tech = replace(tech, retention_time=draw(st.floats(0.2e-6, 12e-6)))
    return replace(default_system().core("core1"), core_id="toy",
                   geometry=CacheGeometry(line * ways * sets, line, ways),
                   data_tech=tech, counter_states_k=draw(st.integers(2, 6)),
                   base_cpi=draw(st.sampled_from(cpis)))


def toy_events(draw, line, max_gap):
    return draw(st.lists(
        st.tuples(st.integers(0, max_gap), st.booleans(),
                  st.integers(0, 40 * line - 1)),
        min_size=1, max_size=60))


@st.composite
def reference_cases(draw):
    """A random toy core, grid frequency, trace, limit and start."""
    core = toy_cores(draw, [1.0, 1.3])
    freq = draw(st.sampled_from(core.dvfs.grid()))
    events = toy_events(draw, core.geometry.line_bytes, 4000)
    total = sum(gap + 1 for gap, _, _ in events)
    limit = draw(st.none() | st.integers(1, total + 5))
    start = draw(st.just(0) | st.integers(0, total + 5))
    return core, freq, events, limit, start


def events_trace(events):
    return Trace([TraceEvent(gap, WRITE if w else READ, addr)
                  for gap, w, addr in events], name="ref")


def reference_for(core, freq, events, limit=None, start=0):
    geo = core.geometry
    return reference_run(
        events, geo.sets, geo.ways, geo.line_bytes,
        core.data_tech.retention_time, core.counter_states_k,
        core.base_cpi, freq,
        access_cycles(freq, core.data_tech.hit_latency_ns),
        access_cycles(freq, core.data_tech.write_latency_ns),
        access_cycles(freq, core.miss_penalty_ns),
        limit=limit, start=start)


def counters(run):
    return {**asdict(run.stats), "cycles": run.cycles}


class TestAgainstReference:
    @settings(deadline=None, max_examples=300)
    @given(reference_cases())
    def test_counters_and_cycles_match(self, case):
        core, freq, events, limit, start = case
        run = simulate_run(events_trace(events), core, freq, PowerModel(),
                           limit=limit, start=start)
        assert counters(run) == reference_for(core, freq, events, limit,
                                              start)


# SHA-256 over the repr of every run below, computed before the access loop
# was fused; any change to a result, down to one ulp of one float, moves it.
GOLDEN_DIGEST = "b97dbbf90faafdcfe5da19d11f1fd2d81b1654bf1dae318344cf5a8ae929b88c"


def test_results_match_the_pinned_digest(system, power):
    digest = hashlib.sha256()
    for arch in ARCHETYPES:
        params = archetype_params(arch, 4200 + ord(arch), arch in "BD")
        trace = gen_synthetic(params, name=f"golden-{arch}")
        for core in system.cores:
            for freq in core.dvfs.grid():
                digest.update(repr(simulate_run(trace, core, freq, power)).encode())
            top = core.dvfs.grid()[-1]
            for window in ({"limit": PROFILING_INTERVAL},
                           {"start": PROFILING_INTERVAL}):
                run = simulate_run(trace, core, top, power, **window)
                digest.update(repr(run).encode())
    assert digest.hexdigest() == GOLDEN_DIGEST


class TestShadowSharing:
    def test_one_lru_pass_per_sweep(self, system, power, lru_passes):
        trace = rand_trace(21)
        exhaustive_sweep(trace, system, power, Constraint("none"))
        assert lru_passes == [(len(trace), system.cores[0].geometry)]
        # A profiling window reads a prefix of the same bits.
        simulate_run(trace, system.core("core1"), 1.6, power, limit=2000)
        assert len(lru_passes) == 1

    def test_a_migrated_start_has_its_own_bits(self, system, power, lru_passes):
        trace = rand_trace(22)
        core = system.core("core1")
        simulate_run(trace, core, 1.6, power)
        simulate_run(trace, core, 1.6, power, start=5000)
        simulate_run(trace, core, 1.2, power, start=5000)
        assert len(lru_passes) == 2 and lru_passes[1][0] < len(trace)

    def test_infinite_retention_needs_no_shadow(self, power, lru_passes):
        core = sram_system().cores[0]
        simulate_run(rand_trace(23), core, 2.0, power)
        assert lru_passes == []

    def test_same_name_traces_do_not_share_bits(self, system, power,
                                                lru_passes):
        first = rand_trace(24)
        second = Trace(rand_trace(25).events, name=first.name)
        core = system.core("core1")
        simulate_run(first, core, 1.6, power)
        run = simulate_run(second, core, 1.6, power)
        assert len(lru_passes) == 2
        fresh = Trace(second.events, name="fresh")
        assert run.stats == simulate_run(fresh, core, 1.6, power).stats


def forced_replay(*args, **kwargs):
    """`simulate_run` with the no-expiry certificate refused, so every run
    replays its accesses."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CacheState, "derive", lambda *a, **kw: None)
        return simulate_run(*args, **kwargs)


@pytest.fixture
def replays(monkeypatch):
    """One entry per `CacheState.replay` call."""
    calls = []
    original = CacheState.replay

    def counted(self, *args):
        calls.append(len(args[0]))
        return original(self, *args)
    monkeypatch.setattr(CacheState, "replay", counted)
    return calls


@st.composite
def derivable_cases(draw):
    """A random toy core, grid frequency, whole-run trace and start; short
    gaps make many of them runs that no expiry touches."""
    core = toy_cores(draw, [1.0, 1.5])
    freq = draw(st.sampled_from(core.dvfs.grid()))
    max_gap = draw(st.sampled_from([20, 300, 4000]))
    events = toy_events(draw, core.geometry.line_bytes, max_gap)
    total = sum(gap + 1 for gap, _, _ in events)
    start = draw(st.just(0) | st.integers(0, total + 5))
    return core, freq, events, start


def boundary_core(**kw):
    """A 2-way core whose blocks live exactly 2,000 ns; at 1 GHz that is
    2,000 cycles and every time is an integer."""
    return replace(default_system().core("core1"), core_id="edge",
                   geometry=CacheGeometry(64 * 2 * 4, 64, 2),
                   data_tech=replace(STT_10US, retention_time=4e-6),
                   counter_states_k=2, **kw)


class TestDerivedRuns:
    """A whole run that no expiry can touch is derived from the shadow pass
    instead of replayed, with bit-identical results."""

    @settings(deadline=None, max_examples=300)
    @given(derivable_cases())
    def test_derived_runs_equal_replays_and_the_reference(self, case):
        core, freq, events, start = case
        trace = events_trace(events)
        run = simulate_run(trace, core, freq, PowerModel(), start=start)
        replayed = forced_replay(events_trace(events), core, freq,
                                 PowerModel(), start=start)
        assert repr(run) == repr(replayed)
        assert counters(run) == reference_for(core, freq, events, start=start)

    def test_only_runs_that_can_expire_replay(self, system, power, replays):
        hot = gen_synthetic(archetype_params("A", 4301, False), name="hot")
        run = simulate_run(hot, system.core("core3"), 2.0, power)
        assert replays == [] and run.stats.hits > 0.9 * run.mem_accesses
        assert repr(run) == repr(forced_replay(hot, system.core("core3"), 2.0,
                                               power))
        replays.clear()
        cold = gen_synthetic(archetype_params("C", 4302, False), name="cold")
        run = simulate_run(cold, system.core("core1"), 0.8, power)
        assert len(replays) == 1 and run.stats.expiration_misses > 0

    @pytest.mark.parametrize("gap, early", [(1898, 1), (1897, 0)])
    def test_a_span_of_the_lifetime_replays(self, power, replays, gap, early):
        # A write fills 0x40 at 0 ns (1 + 50 cycles) and a read of 0x80
        # (1 + 50 cycles) ends the run, so 0x40's restore span is the whole
        # run: 2,000 cycles with the longer gap, 1,999 with the shorter.
        core = boundary_core()
        events = [(0, True, 0x40), (gap, False, 0x80)]
        run = simulate_run(events_trace(events), core, 1.0, power)
        assert run.cycles == 2000 - (1 - early)
        assert run.stats.early_writebacks == early
        assert len(replays) == early
        assert repr(run) == repr(forced_replay(events_trace(events), core,
                                               1.0, power))
        assert counters(run) == reference_for(core, 1.0, events)

    @pytest.mark.parametrize("window", [{"cpi": 1.5}, {"limit": 30}])
    def test_fractional_cpi_and_limit_windows_replay(self, power, replays,
                                                     window):
        core = boundary_core(base_cpi=window.get("cpi", 1.0))
        events = [(3, False, 0x40), (3, True, 0x40), (3, False, 0x80)]
        limit = window.get("limit")
        run = simulate_run(events_trace(events), core, 1.0, power,
                           limit=limit)
        assert len(replays) == 1 and run.stats.expiration_misses == 0
        assert counters(run) == reference_for(core, 1.0, events, limit)

    def test_a_block_that_expires_before_its_eviction_replays(self, power,
                                                              replays):
        # At 1 GHz a time is a cycle count: 0x0 @ 0 ns, 0x40 @ 1,000,
        # 0x0 @ 2,000, 0x80 @ 7,600 and 0x40 @ 7,700. 0x0 expires at
        # 7,500 ns, so 0x80 takes its way and the last read hits, while the
        # shadow evicts 0x40 and misses it.
        core = replace(default_system().core("core1"),
                       geometry=CacheGeometry(128, 64, 2))
        events = [(0, False, 0x0), (949, False, 0x40), (949, False, 0x0),
                  (5599, False, 0x80), (49, False, 0x40)]
        run = simulate_run(events_trace(events), core, 1.0, power)
        assert len(replays) == 1
        assert run.stats.hits == 2 and run.stats.shadow_misses == 4
        assert counters(run) == reference_for(core, 1.0, events)


def sweep_on(cpus, *args, **kwargs):
    """`exhaustive_sweep` with `os.cpu_count()` reading `cpus` (None: as is)."""
    with pytest.MonkeyPatch.context() as mp:
        if cpus is not None:
            mp.setattr(os, "cpu_count", lambda: cpus)
        return exhaustive_sweep(*args, **kwargs)


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


class TestParallelSweep:
    """Sweeps split over forked workers give the one-worker results."""

    @pytest.mark.parametrize("case", ["default", "sram", "limit", "one-access",
                                      "fewer-points-than-workers"])
    def test_rows_equal_one_worker(self, case, system, power):
        trace, limit = rand_trace(31), None
        if case == "sram":
            system = sram_system()
        elif case == "limit":
            limit = 15_000
        elif case == "one-access":
            trace = one_gap_trace(7)
        elif case == "fewer-points-than-workers":
            system = System(cores=(system.core("core1"),))
        serial = sweep_on(1, trace, system, power, Constraint("slack10"),
                          limit=limit)
        for cpus in (None, 3, 64):
            sweep = sweep_on(cpus, trace, system, power, Constraint("slack10"),
                             limit=limit)
            assert repr(sweep) == repr(serial)
        assert no_child_left()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_points_run_in_children_that_inherit_the_shadow(
            self, monkeypatch, tmp_path, system, power):
        log = tmp_path / "calls"

        def logged(name):
            original = getattr(engine, name)

            def call(*args, **kwargs):
                with open(log, "a") as fh:
                    fh.write(f"{name} {os.getpid()}\n")
                return original(*args, **kwargs)
            monkeypatch.setattr(engine, name, call)

        logged("LruShadow")
        logged("simulate_run")
        sweep_on(3, rand_trace(34), system, power, Constraint("none"))
        calls = log.read_text().splitlines()
        runs = [c for c in calls if c.startswith("simulate_run")]
        points = sum(len(core.dvfs.grid()) for core in system.cores)
        assert len(runs) == points and len(set(runs)) == 3
        # One LRU pass, made before the fork.
        assert calls[0] == f"LruShadow {os.getpid()}" and len(calls) == points + 1

    @pytest.mark.parametrize("cpus, failing", [
        (None, lambda i, core: core.core_id == "core2"),
        (2, lambda i, core: i == 0),  # the caller's share
        (2, lambda i, core: i == 1),  # the forked worker's share
    ])
    def test_a_failing_point_reaches_the_caller(self, monkeypatch, system,
                                                power, cpus, failing):
        points = [core for core in system.cores for _ in core.dvfs.grid()]
        original = engine.simulate_run

        def flaky(trace, core, freq, *args, **kwargs):
            i = points.index(core) + core.dvfs.grid().index(freq)
            if failing(i, core):
                raise ValueError(f"no run at point {i}")
            return original(trace, core, freq, *args, **kwargs)

        monkeypatch.setattr(engine, "simulate_run", flaky)
        with pytest.raises(ValueError, match=r"^no run at point \d+$"):
            sweep_on(cpus, rand_trace(32), system, power, Constraint("none"))
        assert no_child_left()

    def test_a_worker_that_dies_has_its_share_rerun(self, monkeypatch, system,
                                                    power):
        parent = os.getpid()
        original = engine.simulate_run

        def dying(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(0)
            return original(*args, **kwargs)

        trace = rand_trace(33)
        serial = sweep_on(1, trace, system, power, Constraint("none"))
        monkeypatch.setattr(engine, "simulate_run", dying)
        sweep = sweep_on(2, trace, system, power, Constraint("none"))
        assert repr(sweep) == repr(serial)
        assert no_child_left()
