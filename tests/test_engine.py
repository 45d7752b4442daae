import collections
import hashlib
import math
import random
import re
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from sttsim import cache, engine
from sttsim import (CacheGeometry, CacheState, CacheStats, Constraint,
                    PowerModel, STT_10US, SRAM, SynthParams, System, Trace,
                    TraceEvent, UniformGaps, access_cycles, cache_energy,
                    default_system, edp, exhaustive_sweep, gen_synthetic,
                    pareto_flags, processor_energy, simulate_run)
from sttsim.config import make_core
from sttsim.trace import READ, WRITE

from reference import (ReferenceLru, reference_all_miss_writebacks,
                       reference_run)
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

    @pytest.mark.parametrize("kw", [
        {"effective_capacitance_f": math.nan},
        {"effective_capacitance_f": math.inf},
        {"static_points": ((0.9, math.nan),)},
        {"static_points": ((math.inf, 0.5),)},
        {"static_points": ((0.9, 0.35), (math.nan, 0.5))}])
    def test_power_values_out_of_range_rejected(self, kw):
        with pytest.raises(ValueError):
            PowerModel(**kw)

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
        assert sweep.best.core_id == "core2"
        assert len(sweep.rows) == len(sys1.cores[0].dvfs.grid())

    def test_hit_dominated_write_free_prefers_top_frequency(self, system, power):
        # All cache terms equal across cores once expiry is out of reach:
        # the winner is the max-frequency, lowest-static point.
        params = SynthParams(working_set_blocks=4, reuse_gaps=UniformGaps(80, 120),
                             write_fraction=0.0, total_instructions=5000, seed=3)
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
                             write_fraction=0.3, total_instructions=400_000,
                             seed=5)
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
        core = make_core("core1", SRAM)
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


def toy_cores(draw, cpis, sets=(1, 2, 4, 8), techs=(SRAM, STT_10US),
              longest_s=12e-6):
    """A random toy core: 1-4 ways, 16 or 64-byte lines, a tech from
    `techs`, its retention, if any, 0.2 us to `longest_s` with k 2-6, and a
    base CPI from `cpis`."""
    ways = draw(st.sampled_from([1, 2, 4]))
    sets = draw(st.sampled_from(sets))
    line = draw(st.sampled_from([16, 64]))
    tech = draw(st.sampled_from(techs))
    if math.isfinite(tech.retention_time):
        tech = replace(tech, retention_time=draw(st.floats(0.2e-6,
                                                            longest_s)))
    return replace(default_system().core("core1"), core_id="toy",
                   geometry=CacheGeometry(line * ways * sets, line, ways),
                   data_tech=tech, counter_states_k=draw(st.integers(2, 6)),
                   base_cpi=draw(st.sampled_from(cpis)))


def toy_events(draw, line, max_gap, min_size=1):
    return draw(st.lists(
        st.tuples(st.integers(0, max_gap), st.booleans(),
                  st.integers(0, 40 * line - 1)),
        min_size=min_size, max_size=60))


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
        # Twice on one trace: the second run may take the all-miss facts,
        # which a pass makes only at its second refusal.
        core, freq, events, limit, start = case
        trace = events_trace(events)
        first, run = (simulate_run(trace, core, freq, PowerModel(),
                                   limit=limit, start=start) for _ in "12")
        assert repr(first) == repr(run)
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


# (derived, all-miss, replayed) runs of each archetype's 22-point sweep. The
# digest above cannot see a run that moves to a replay with the same result.
# The first run that `derive` refuses replays, as its pass has no facts yet.
PINNED_ROUTES = {"A": (21, 0, 1), "B": (7, 11, 4), "C": (9, 5, 8),
                 "D": (0, 7, 15)}


@pytest.mark.parametrize("arch", ARCHETYPES)
def test_route_mix_is_pinned(system, power, routes, arch):
    params = archetype_params(arch, 4200 + ord(arch), arch in "BD")
    exhaustive_sweep(gen_synthetic(params, name=f"golden-{arch}"), system,
                     power, Constraint("none"))
    mix = collections.Counter(routes)
    assert (mix["derive"], mix["misses"], mix["replay"]) == PINNED_ROUTES[arch]


README =Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_surface_runs(system, capsys):
    """README's "Library surface" snippet runs as printed: a sweep of the
    reference system, whose best core, frequency and energy it prints."""
    snippet = re.search(r"## Library surface\n\n```python\n(.*?)```",
                        README.read_text(), re.S)
    exec(compile(snippet.group(1), str(README), "exec"), {})
    core, freq, energy = capsys.readouterr().out.split()
    assert float(freq) in system.core(core).dvfs.grid()
    assert float(energy) > 0


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

    def test_sram_and_stt_cores_of_one_geometry_share_one_pass(
            self, power, lru_passes, routes):
        # SRAM is the technology of infinite retention: its runs read the
        # same LRU pass as an STT-RAM core's of the same geometry, and as
        # no block of theirs expires, each is derived from it.
        geo = CacheGeometry(64 * 2 * 16, 64, 2)
        base = default_system()
        system = System(cores=tuple(
            replace(base.core(label), core_id=label, geometry=geo,
                    data_tech=tech)
            for label, tech in (("core1", STT_10US), ("core3", SRAM))))
        rng = random.Random(23)
        events = [(rng.randrange(3000), rng.random() < 0.4,
                   0x4000 + 64 * rng.randrange(64)) for _ in range(400)]
        trace = events_trace(events)
        sweep = exhaustive_sweep(trace, system, power, Constraint("none"))
        assert lru_passes == [(len(trace), geo)]
        assert len(routes) == len(sweep.rows)
        for run, route in zip(sweep.rows, routes):
            core = system.core(run.core_id)
            if core.data_tech is SRAM:
                assert route == "derive" and run.stats.evictions > 0
            assert repr(run) == repr(forced_replay(trace, core, run.freq_ghz,
                                                   power))
            assert counters(run) == reference_for(core, run.freq_ghz, events)

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
    """`simulate_run` with both certificates, no expiry and no hit, refused,
    so every run replays its accesses."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CacheState, "derive", lambda *a, **kw: None)
        mp.setattr(CacheState, "derive_misses", lambda *a, **kw: None)
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


@pytest.fixture
def routes(monkeypatch):
    """How each run went: "derive" or "misses" for the certificate, no
    expiry or no hit, that derived it, "replay" for a replay."""
    calls = []

    def tracked(name, route):
        original = getattr(CacheState, name)

        def call(self, *args):
            result = original(self, *args)
            if route == "replay" or result is not None:
                calls.append(route)
            return result
        monkeypatch.setattr(CacheState, name, call)

    tracked("derive", "derive")
    tracked("derive_misses", "misses")
    tracked("replay", "replay")
    return calls


def refused_once(routes, trace, *args, **kwargs):
    """`simulate_run` of `trace` after an equal first run of it, which spends
    the first refusal of the pass the two share: a run that `derive` refuses
    replays the first time and tries the all-miss facts the second. `routes`
    then holds the second run's route alone."""
    routes.clear()
    first = simulate_run(trace, *args, **kwargs)
    before = list(routes)
    routes.clear()
    run = simulate_run(trace, *args, **kwargs)
    assert repr(run) == repr(first)
    assert before == (["replay"] if routes == ["misses"] else routes)
    return run


@st.composite
def derivable_cases(draw):
    """A random toy core, grid frequency, trace, limit and start; short gaps
    make many of them runs that no expiry touches."""
    core = toy_cores(draw, [1.0, 1.5])
    freq = draw(st.sampled_from(core.dvfs.grid()))
    max_gap = draw(st.sampled_from([20, 300, 4000]))
    # Drawn lists and integers tend to be short, and so would the windows
    # that evict: some cases take at least 20 accesses, and some windows
    # end at or after the first access that evicts in the run's LRU cache.
    events = toy_events(draw, core.geometry.line_bytes, max_gap,
                        draw(st.sampled_from([1, 20])))
    total = sum(gap + 1 for gap, _, _ in events)
    start = draw(st.just(0) | st.integers(0, total + 5))
    limits = st.none() | st.integers(1, total + 5)
    evicted = first_eviction_end(core.geometry, events, start)
    if evicted is not None:
        limits |= st.integers(evicted, total - start)
    return core, freq, events, draw(limits), start


def first_eviction_end(geometry, events, start):
    """The instructions from `start` through the first access of a run from
    `start` that misses in a full set of `ReferenceLru`, or None."""
    ref = ReferenceLru(geometry.sets, geometry.ways, geometry.line_bytes)
    pos = 0
    for gap, _, addr in events:
        pos += gap + 1
        if pos <= start:
            continue
        line = addr // geometry.line_bytes
        blocks = ref.content[line % geometry.sets]
        if line not in blocks and len(blocks) == geometry.ways:
            return pos - start
        ref.access(addr)
    return None


def boundary_core(write_ns=STT_10US.write_latency_ns, **kw):
    """A 2-way core whose blocks live exactly 2,000 ns; at 1 GHz that is
    2,000 cycles and every time is an integer. A read takes 1 cycle, a write
    `write_ns` rounded up (1 by default) and a miss 50 more."""
    return replace(default_system().core("core1"), core_id="edge",
                   geometry=CacheGeometry(64 * 2 * 4, 64, 2),
                   data_tech=replace(STT_10US, retention_time=4e-6,
                                     write_latency_ns=write_ns),
                   counter_states_k=2, **kw)


class TestDerivedRuns:
    """A run that no expiry can touch, whole or a window, is derived from
    the shadow pass instead of replayed, with bit-identical results. The
    cases named for a replay sit at that certificate's boundary; where
    every access of such a run misses, the second certificate derives it
    instead (`TestAllMissRuns`)."""

    def test_derived_runs_equal_replays_and_the_reference(self, routes):
        derived_windows = collections.Counter()

        # A run draws some 40 distinct cores, and the windows past the first
        # eviction come from the few with an integer CPI whose geometry
        # evicts, so a random seed misses them in about one run in
        # thirty: the seed is fixed.
        @settings(deadline=None, max_examples=300, derandomize=True)
        @given(derivable_cases())
        def check(case):
            core, freq, events, limit, start = case
            routes.clear()
            run = simulate_run(events_trace(events), core, freq, PowerModel(),
                               limit=limit, start=start)
            total = sum(gap + 1 for gap, _, _ in events)
            if routes == ["derive"] and run.instructions < total - start:
                # No block expired, so the run evicted where the shadow did:
                # a window with evictions ends after the shadow's first.
                derived_windows[run.stats.evictions > 0] += 1
            replayed = forced_replay(events_trace(events), core, freq,
                                     PowerModel(), limit=limit, start=start)
            assert repr(run) == repr(replayed)
            assert counters(run) == reference_for(core, freq, events, limit,
                                                  start)

        check()
        # Windows that end before the trace does are derived, both before
        # the shadow's first eviction and after it.
        assert derived_windows.keys() == {False, True}, derived_windows

    def test_only_runs_that_can_expire_replay(self, system, power, routes):
        hot = gen_synthetic(archetype_params("A", 4301, False), name="hot")
        run = refused_once(routes, hot, system.core("core3"), 2.0, power)
        assert routes == ["derive"] and run.stats.hits > 0.9 * run.mem_accesses
        assert repr(run) == repr(forced_replay(hot, system.core("core3"), 2.0,
                                               power))
        routes.clear()
        # On the 10 us core at 0.8 GHz every reuse of `cold` expires, so
        # the run is derived as one in which every access misses.
        cold = gen_synthetic(archetype_params("C", 4302, False), name="cold")
        run = refused_once(routes, cold, system.core("core1"), 0.8, power)
        assert routes == ["misses"] and run.stats.expiration_misses > 0
        assert run.stats.hits == 0
        assert repr(run) == repr(forced_replay(cold, system.core("core1"), 0.8,
                                               power))
        routes.clear()
        # On the 26.5 us core at 1 GHz some reuses expire and most hit:
        # neither certificate holds, and the run replays.
        run = refused_once(routes, cold, system.core("core2"), 1.0, power)
        assert routes == ["replay"]
        assert run.stats.hits > 0 and run.stats.expiration_misses > 0

    @pytest.mark.parametrize("gap, early", [(1898, 1), (1897, 0)])
    def test_a_span_of_the_lifetime_replays(self, power, routes, gap, early):
        # A write fills 0x40 at 0 ns (1 + 50 cycles) and a read of 0x80
        # (1 + 50 cycles) ends the run, so 0x40's restore span is the whole
        # run: 2,000 cycles with the longer gap, 1,999 with the shorter.
        # The first certificate refuses the longer one; as both accesses
        # miss, the second derives it.
        core = boundary_core()
        events = [(0, True, 0x40), (gap, False, 0x80)]
        run = refused_once(routes, events_trace(events), core, 1.0, power)
        assert run.cycles == 2000 - (1 - early)
        assert run.stats.early_writebacks == early
        assert routes == ["misses" if early else "derive"]
        assert repr(run) == repr(forced_replay(events_trace(events), core,
                                               1.0, power))
        assert counters(run) == reference_for(core, 1.0, events)

    @pytest.mark.parametrize("window", [{"cpi": 1.5}, {"limit": 10}])
    def test_fractional_cpi_and_limit_windows_replay(self, power, replays,
                                                     window):
        # A fractional CPI replays. A window of the first two accesses and
        # two instructions of the third one's gap expires nothing and is
        # derived from the shadow pass.
        core = boundary_core(base_cpi=window.get("cpi", 1.0))
        events = [(3, False, 0x40), (3, True, 0x40), (3, False, 0x80)]
        limit = window.get("limit")
        run = simulate_run(events_trace(events), core, 1.0, power,
                           limit=limit)
        assert len(replays) == (limit is None)
        assert run.stats.expiration_misses == 0
        if limit is not None:
            assert run.mem_accesses == 2
            assert repr(run) == repr(forced_replay(events_trace(events), core,
                                                   1.0, power, limit=limit))
        assert counters(run) == reference_for(core, 1.0, events, limit)

    def test_sram_at_a_fractional_cpi_replays(self, power, routes):
        # A fractional CPI refuses both certificates before the all-miss
        # facts are read, so an SRAM run's infinite lifetime never reaches
        # the lane bounds: it replays, with the results of the reference.
        core = replace(make_core("core1", SRAM), base_cpi=1.5,
                       geometry=CacheGeometry(64 * 2 * 4, 64, 2))
        events = [(3, True, 0x0), (3, False, 0x100), (3, False, 0x200),
                  (3000, False, 0x0)]
        trace = events_trace(events)
        run = refused_once(routes, trace, core, 2.0, power)
        assert routes == ["replay"] and run.stats.evictions == 2
        assert "facts" not in vars(engine._pass(trace, core.geometry, 0))
        assert counters(run) == reference_for(core, 2.0, events)

    @pytest.mark.parametrize("limit, early", [(1950, 1), (1949, 0)])
    def test_a_window_span_of_the_lifetime_through_its_tail_replays(
            self, power, routes, limit, early):
        # A write fills 0x40 at 0 ns (1 + 50 cycles) and the window ends
        # `limit - 1` instructions later, long before the read of 0x80. The
        # whole run's span of 0x40 outlasts the lifetime, so only the window
        # bounds it: 2,000 cycles through the longer tail, 1,999 through the
        # shorter. The first certificate refuses the longer tail; the second
        # derives it, its one access a miss.
        core = boundary_core()
        events = [(0, True, 0x40), (5000, False, 0x80)]
        run = refused_once(routes, events_trace(events), core, 1.0, power,
                           limit=limit)
        assert run.mem_accesses == 1 and run.cycles == 2000 - (1 - early)
        assert run.stats.early_writebacks == early
        assert routes == ["misses" if early else "derive"]
        assert repr(run) == repr(forced_replay(events_trace(events), core,
                                               1.0, power, limit=limit))
        assert counters(run) == reference_for(core, 1.0, events, limit)

    def test_a_window_longer_than_the_lifetime_takes_the_run_bound(
            self, power, replays):
        # 0x40 is written every 500 instructions, so no restore span of the
        # run reaches 551 cycles, while the 3,000-instruction window, taken
        # as one span, outlasts the 2,000-cycle lifetime.
        core = boundary_core()
        events = [(0, True, 0x40)] + [(499, True, 0x40)] * 8
        run = simulate_run(events_trace(events), core, 1.0, power, limit=3000)
        assert run.mem_accesses == 6 and run.cycles > 2000 and replays == []
        assert repr(run) == repr(forced_replay(events_trace(events), core,
                                               1.0, power, limit=3000))
        assert counters(run) == reference_for(core, 1.0, events, 3000)

    @pytest.mark.parametrize("limit, accesses", [(8, 2), (11, 2), (12, 3)])
    def test_a_window_that_evicts_replays(self, power, routes, limit,
                                          accesses):
        # 0x0, 0x100 and 0x200 share a set of two ways, so the shadow's first
        # eviction is the third access, of dirty 0x0. A window of the first
        # two accesses, with or without a tail, is derived, and so is one of
        # three, which evicts: its codes count the dirty eviction, and its
        # spans are bounded as any run's are.
        core = boundary_core()
        events = [(3, True, 0x0), (3, False, 0x100), (3, False, 0x200),
                  (3, False, 0x0)]
        run = simulate_run(events_trace(events), core, 1.0, power,
                           limit=limit)
        evicted = int(accesses > 2)
        assert run.mem_accesses == accesses
        assert routes == ["derive"]
        assert run.stats.evictions == run.stats.writebacks == evicted
        assert repr(run) == repr(forced_replay(events_trace(events), core,
                                               1.0, power, limit=limit))
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


@st.composite
def all_miss_cases(draw):
    """A random toy core, grid frequency, trace, limit and start in which
    many runs miss at every access: a short retention, writes that may stall
    longer than reads, and bursts of short gaps between gaps that can
    outlast a lifetime, over more blocks than a set holds."""
    core = toy_cores(draw, [1.0, 2.0, 1.5], sets=(1, 2), techs=(STT_10US,),
                     longest_s=3e-6)
    core = replace(core, data_tech=replace(
        core.data_tech, write_latency_ns=draw(st.sampled_from([0.601, 3.2]))))
    freq = draw(st.sampled_from(core.dvfs.grid()))
    line = core.geometry.line_bytes
    gaps = st.integers(0, 30) | st.integers(2_000, 40_000)
    events = draw(st.lists(
        st.tuples(gaps, st.booleans(), st.integers(0, 12 * line - 1)),
        min_size=1, max_size=40))
    total = sum(gap + 1 for gap, _, _ in events)
    limit = draw(st.none() | st.integers(1, total + 5))
    start = draw(st.just(0) | st.integers(0, total + 5))
    return core, freq, events, limit, start


# Two-way sets of `boundary_core`, every access a miss. `SET_INTERVAL` fills
# 0x0, 0x100 and 0x200 into one set, the third 2,001 ns after the first,
# a cycle after 0x0 has expired: nothing is evicted. `BURSTS` are bursts of
# those three blocks 2,500 instructions apart, whose third accesses evict.
SET_INTERVAL = [(0, True, 0x0), (3, False, 0x100), (1896, False, 0x200)]
BURSTS = [(10 if i % 3 else 2500, i % 2 == 0, 0x100 * (i % 3))
          for i in range(12)]


class TestAllMissRuns:
    """A run in which every access misses is derived from the trace's
    `miss_facts` instead of replayed, with bit-identical results, once a
    second run on its pass needs them."""

    def test_facts_wait_for_the_second_refusal(self, monkeypatch, power,
                                               routes):
        # Every access of BURSTS misses. A one-shot run makes no facts and
        # replays; the second run that `derive` refuses on the same pass
        # makes them once and is derived, and so is a later window of it.
        made = []
        original = cache.miss_facts
        monkeypatch.setattr(cache, "miss_facts",
                            lambda *args: made.append(1) or original(*args))
        core, trace = boundary_core(), events_trace(BURSTS)
        expected = [forced_replay(events_trace(BURSTS), core, 1.0, power,
                                  **window) for window in ({}, {"limit": 6000})]
        routes.clear()
        first = simulate_run(trace, core, 1.0, power)
        assert routes == ["replay"] and made == []
        second = simulate_run(trace, core, 1.0, power)
        window = simulate_run(trace, core, 1.0, power, limit=6000)
        assert routes == ["replay", "misses", "misses"] and len(made) == 1
        assert repr(first) == repr(second) == repr(expected[0])
        assert repr(window) == repr(expected[1])

    def test_derived_runs_equal_replays_and_the_reference(self, routes):
        derived = set()

        @settings(deadline=None, max_examples=400)
        @given(all_miss_cases())
        # Each asserted kind of run by construction: whole runs and windows
        # (a `limit` with a tail, a `start` inside a gap), with and without
        # evictions.
        @example((boundary_core(), 1.0, SET_INTERVAL, None, 0))
        @example((boundary_core(), 1.0, BURSTS, None, 0))
        @example((boundary_core(), 1.0, SET_INTERVAL + [(3000, False, 0x300)],
                  1905, 0))
        @example((boundary_core(), 1.0, BURSTS, None, 1000))
        def check(case):
            core, freq, events, limit, start = case
            run = refused_once(routes, events_trace(events), core, freq,
                               PowerModel(), limit=limit, start=start)
            if routes == ["misses"]:
                derived.add((run.stats.evictions > 0,
                             limit is not None or start > 0))
            replayed = forced_replay(events_trace(events), core, freq,
                                     PowerModel(), limit=limit, start=start)
            assert repr(run) == repr(replayed)
            assert counters(run) == reference_for(core, freq, events, limit,
                                                  start)

        check()
        # Derived runs with and without evictions, whole runs and windows.
        assert {evicts for evicts, _ in derived} == {False, True}
        assert {window for _, window in derived} == {False, True}

    @pytest.mark.parametrize("gap, hit", [(1949, 0), (1948, 1)])
    def test_a_reuse_of_the_lifetime_replays(self, power, routes, gap, hit):
        # A write fills 0x40 at 0 ns (1 + 50 cycles) and the read of 0x40
        # comes at 2,000 ns with the longer gap, exactly when the block
        # expires, and misses; at 1,999 ns with the shorter, and hits. No
        # margin separates either from the lifetime, so both replay.
        core = boundary_core()
        events = [(0, True, 0x40), (gap, False, 0x40)]
        run = refused_once(routes, events_trace(events), core, 1.0, power)
        assert routes == ["replay"]
        assert run.stats.hits == hit and run.stats.expiration_misses == 1 - hit
        assert run.stats.early_writebacks == 1
        assert repr(run) == repr(forced_replay(events_trace(events), core,
                                               1.0, power))
        assert counters(run) == reference_for(core, 1.0, events)

    @pytest.mark.parametrize("write_ns, gap, evicts", [
        (0.601, 1895, 0), (0.601, 1894, 1), (3.2, 1892, 0), (3.2, 1891, 1)])
    def test_a_set_interval_of_the_lifetime(self, power, routes, write_ns,
                                            gap, evicts):
        # 0x0 (dirty), 0x100 and 0x200 share a set of two ways; the write
        # stalls 51 cycles, or 54 with a 3.2 ns write. The third access
        # comes at 2,000 ns with the longer gap, when 0x0 has just expired,
        # and evicts nothing; at 1,999 ns with the shorter, and evicts 0x0.
        # The first interval lies within the rounding of the run's times of
        # the lifetime, so the run replays; the second is derived by
        # counting evictions.
        core = boundary_core(write_ns)
        events = [(0, True, 0x0), (3, False, 0x100), (gap, False, 0x200)]
        run = refused_once(routes, events_trace(events), core, 1.0, power)
        assert routes == ["misses" if evicts else "replay"]
        assert run.stats.evictions == run.stats.writebacks == evicts
        assert run.stats.early_writebacks == 1 - evicts
        assert repr(run) == repr(forced_replay(events_trace(events), core,
                                               1.0, power))
        assert counters(run) == reference_for(core, 1.0, events)

    @pytest.mark.parametrize("gap, early", [(1895, 1), (1894, 0)])
    def test_a_fill_that_expires_as_the_run_ends(self, power, routes, gap,
                                                 early):
        # A 3.2 ns write fills 0x40 at 0 ns (4 + 50 cycles) and a read of
        # 0x80 (1 + 50 cycles) ends the run at 2,000 ns with the longer gap,
        # when 0x40 expires and is written back, or at 1,999 ns.
        core = boundary_core(3.2)
        events = [(0, True, 0x40), (gap, False, 0x80)]
        run = refused_once(routes, events_trace(events), core, 1.0, power)
        assert run.cycles == 2000 - (1 - early)
        assert run.stats.early_writebacks == early
        assert routes == ["misses" if early else "derive"]
        assert repr(run) == repr(forced_replay(events_trace(events), core,
                                               1.0, power))
        assert counters(run) == reference_for(core, 1.0, events)

    @pytest.mark.parametrize("window", [{}, {"start": 1000},
                                        {"limit": 6000},
                                        {"start": 1000, "limit": 6000}])
    @pytest.mark.parametrize("cpi", [1.0, 1.5])
    def test_windows_and_fractional_cpi(self, power, routes, window, cpi):
        # Bursts of 0x0, 0x100 and 0x200 in a two-way set, 2,500
        # instructions apart: every reuse expires and every third access
        # evicts the first of its burst. `start` cuts into the first gap and
        # `limit` ends in a gap, leaving a tail. A fractional CPI replays.
        core = boundary_core(base_cpi=cpi)
        events = BURSTS
        run = refused_once(routes, events_trace(events), core, 1.0, power,
                           **window)
        assert routes == ["replay" if cpi % 1 else "misses"]
        assert run.stats.hits == 0 and run.stats.evictions > 0
        assert repr(run) == repr(forced_replay(events_trace(events), core,
                                               1.0, power, **window))
        assert counters(run) == reference_for(core, 1.0, events, **window)


def lane_oracle(trace, core, freq, limit=None, start=0):
    """`reference_all_miss_writebacks` over the window `simulate_run` takes
    of `trace`, the first gap cut at `start`."""
    first, cut, count, tail, _ = engine._window(trace, start, limit)
    events = [[gap, write, addr] for gap, write, addr in zip(
        trace.gaps[first:first + count], trace.writes[first:first + count],
        trace.addrs[first:first + count])]
    if events:
        events[0][0] -= cut
    geo, cache = core.geometry, CacheState(core, freq)
    return reference_all_miss_writebacks(
        events, geo.sets, geo.ways, geo.line_bytes, cache.lifetime_ns,
        core.base_cpi, freq, cache.read_cycles, cache.write_cycles,
        cache.penalty_cycles, tail)


def writebacks(run):
    return (run.stats.evictions, run.stats.writebacks,
            run.stats.early_writebacks)


@st.composite
def lane_cases(draw):
    """Cores, grid frequencies and traces like those of `all_miss_cases`,
    with an integer CPI and more blocks, so that fewer reuses hit, as a
    whole run, a window of at least half of it, or a suffix from a `start`
    in its first third."""
    core = toy_cores(draw, [1.0, 2.0], sets=(1, 2), techs=(STT_10US,),
                     longest_s=3e-6)
    core = replace(core, data_tech=replace(
        core.data_tech, write_latency_ns=draw(st.sampled_from([0.601, 3.2]))))
    freq = draw(st.sampled_from(core.dvfs.grid()))
    line = core.geometry.line_bytes
    gaps = st.integers(0, 30) | st.integers(2_000, 40_000)
    events = draw(st.lists(
        st.tuples(gaps, st.booleans(), st.integers(0, 60 * line - 1)),
        min_size=1, max_size=60))
    total = sum(gap + 1 for gap, _, _ in events)
    kind = draw(st.sampled_from(["whole", "window", "suffix"]))
    limit = (draw(st.integers(max(1, total // 2), total))
             if kind == "window" else None)
    start = draw(st.integers(1, max(1, total // 3))) if kind == "suffix" else 0
    return core, freq, events, limit, start


class TestEvictionLanes:
    """An all-miss run that evicts counts its evictions over word-parallel
    integer lanes, with the counts of a pass over its access times."""

    def test_lane_counts_equal_the_per_access_pass(self, routes):
        derived = set()

        @settings(deadline=None, max_examples=400)
        @given(lane_cases())
        # Each asserted kind of evicting run by construction: a whole run,
        # a `limit` window and a suffix from a `start` inside a gap.
        @example((boundary_core(), 1.0, BURSTS, None, 0))
        @example((boundary_core(), 1.0, BURSTS, 6000, 0))
        @example((boundary_core(), 1.0, BURSTS, None, 1000))
        def check(case):
            core, freq, events, limit, start = case
            trace = events_trace(events)
            run = refused_once(routes, trace, core, freq, PowerModel(),
                               limit=limit, start=start)
            if routes != ["misses"]:
                return
            assert writebacks(run) == lane_oracle(trace, core, freq, limit,
                                                  start)
            if run.stats.evictions:
                cut = engine._window(trace, start, limit)[1]
                derived.add("cut" if cut else "suffix" if start
                            else "window" if limit is not None else "whole")

        check()
        # Runs that evict: whole runs, `limit` windows and suffixes from a
        # `start` inside a gap.
        assert {"whole", "window", "cut"} <= derived

    @pytest.mark.parametrize("freq, first_gap, gap, evicts", [
        (1.6, 0, 11_835, 0), (1.6, 0, 11_834, 1),
        (1.8, 10_249, 13_313, 1), (1.8, 0, 13_313, 0)])
    def test_an_interval_of_the_lifetime_in_cycles(self, power, routes, freq,
                                                   first_gap, gap, evicts):
        # Writes of 0x0 and 0x100 and a read of 0x200 share a set of two
        # ways; blocks live 7,500 ns. At 1.6 GHz that is exactly 12,000
        # cycles, and the read comes 12,000 cycles after the first write
        # with the longer gap, or 11,999. At 1.8 GHz 13,500 cycles last
        # 7,500 ns but for one rounding of 1 / 1.8, and the float times
        # decide: starting 10,249 cycles in, the read still evicts 0x0; from
        # 0 it does not. Only the interval of 11,999 cycles lies further
        # from the lifetime than the rounding of the run's times and is
        # derived; the others replay.
        core = replace(default_system().core("core3"), data_tech=STT_10US,
                       geometry=CacheGeometry(64 * 2 * 4, 64, 2))
        events = [(first_gap, True, 0x0), (3, True, 0x100),
                  (gap, False, 0x200)]
        run = refused_once(routes, events_trace(events), core, freq, power)
        assert routes == ["misses" if gap == 11_834 else "replay"]
        assert run.stats.evictions == run.stats.writebacks == evicts
        assert repr(run) == repr(forced_replay(events_trace(events), core,
                                               freq, power))
        assert counters(run) == reference_for(core, freq, events)

    def test_a_set_that_fills_before_the_start(self, power, routes):
        # 0x0, 0x100, 0x200 and 0x300 share a set of two ways. The run starts
        # inside 0x200's gap, so 0x200 and 0x300 have no second earlier
        # access of their set in it, though the whole trace has; only the
        # read of 0x0 evicts, taking 0x200. A read of 0x40 ends the run after
        # the blocks have expired.
        core = boundary_core()
        events = [(0, True, 0x0), (3, True, 0x100), (3, False, 0x200),
                  (3, False, 0x300), (3, False, 0x0), (2500, False, 0x40)]
        run = refused_once(routes, events_trace(events), core, 1.0, power,
                           start=6)
        assert routes == ["misses"] and run.mem_accesses == 4
        assert writebacks(run) == (1, 0, 0)
        assert repr(run) == repr(forced_replay(events_trace(events), core, 1.0,
                                               power, start=6))
        assert counters(run) == reference_for(core, 1.0, events, start=6)

    @pytest.mark.parametrize("gap, early", [(7, 0), (8, 1)])
    def test_fills_that_outlive_the_run(self, power, routes, gap, early):
        # A read of 0x80 expires 2,001 cycles before a 54-cycle write of
        # 0x40, the only other access of its set. `gap` instructions and 38
        # reads of 51 cycles follow, each read evicting the fill before last
        # of its set, and the run ends 1,999 cycles after the write with the
        # shorter gap, when 0x40 and the 38 reads' fills outlive it. With
        # the longer gap 0x40 expires as the run ends and is written back.
        core = boundary_core(3.2)
        events = ([(0, False, 0x80), (2000, True, 0x40), (gap, False, 0x100)]
                  + [(0, False, 0x100 * j) for j in range(2, 39)])
        run = refused_once(routes, events_trace(events), core, 1.0, power)
        assert routes == ["misses"] and run.cycles == 2051 + 1992 + gap
        assert writebacks(run) == (36, 0, early)
        assert repr(run) == repr(forced_replay(events_trace(events), core, 1.0,
                                               power))
        assert counters(run) == reference_for(core, 1.0, events)

    @pytest.mark.parametrize("gap, retention_s, route", [
        (5_000_000_000, 4e-6, "misses"), (3_000_000, 5e-3, "replay")])
    def test_an_interval_longer_than_a_lane(self, power, routes, gap,
                                            retention_s, route):
        # 0x0, 0x100, 0x200 and 0x300 share a set of two ways; one gap of
        # `gap` instructions comes before 0x200. The two intervals that span
        # it outgrow a lane and saturate: past a 2,000-cycle lifetime they
        # surely do not evict, and the reads after them evict 0x200 and the
        # dirty 0x300. A lifetime of 2.5 M cycles outlasts a saturated lane,
        # so that run is replayed, with the same evictions.
        core = replace(boundary_core(), data_tech=replace(
            STT_10US, retention_time=retention_s))
        events = [(0, True, 0x0), (3, False, 0x100), (gap, False, 0x200),
                  (3, True, 0x300), (3, False, 0x0), (3, False, 0x100)]
        run = refused_once(routes, events_trace(events), core, 1.0, power)
        assert routes == [route] and run.cycles > gap
        assert run.stats.evictions == 2 and run.stats.writebacks == 1
        assert repr(run) == repr(forced_replay(events_trace(events), core, 1.0,
                                               power))
        assert counters(run) == reference_for(core, 1.0, events)


class TestOneProcessSweep:
    """A sweep runs its points in point order in the calling process."""

    @pytest.mark.parametrize("case", ["default", "sram", "one-access",
                                      "one-core"])
    def test_rows_equal_per_point_runs(self, case, system, power):
        def make():
            return one_gap_trace(7) if case == "one-access" else rand_trace(31)
        if case == "sram":
            system = System(cores=(make_core("core1", SRAM),
                                   make_core("core2", SRAM)))
        elif case == "one-core":
            system = System(cores=(system.core("core1"),))
        # Each point from a trace of its own, so no pass is shared.
        rows = [simulate_run(make(), core, freq, power)
                for core in system.cores for freq in core.dvfs.grid()]
        sweep = exhaustive_sweep(make(), system, power, Constraint("slack10"))
        assert repr(sweep.rows) == repr(tuple(rows))

    def test_one_pass_and_one_facts_per_geometry_in_the_caller(
            self, monkeypatch, system, power):
        calls = []  # in this process's memory: a call made elsewhere is lost

        def counted(name):
            original = getattr(cache, name)

            def call(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            monkeypatch.setattr(cache, name, call)

        counted("LruShadow")
        counted("miss_facts")
        assert len({core.geometry for core in system.cores}) == 1
        exhaustive_sweep(rand_trace(34), system, power, Constraint("none"))
        # One pass and at most one set of facts, both made in this process.
        assert sorted(calls) in (["LruShadow"], ["LruShadow", "miss_facts"])

    def test_a_failing_point_reaches_the_caller(self, monkeypatch, system,
                                                power):
        original = engine.simulate_run

        def flaky(trace, core, freq, *args, **kwargs):
            if core.core_id == "core2":
                raise ValueError(f"no run at {core.core_id} {freq} GHz")
            return original(trace, core, freq, *args, **kwargs)

        monkeypatch.setattr(engine, "simulate_run", flaky)
        with pytest.raises(ValueError, match=r"^no run at core2 "):
            exhaustive_sweep(rand_trace(32), system, power, Constraint("none"))
