import hashlib
import math
from dataclasses import replace
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from sttsim import (Constraint, CorePredictor, FeatureVector, HistoryTable,
                    PowerModel, Scheduler, SynthParams, System, Trace,
                    UniformGaps, default_system, exhaustive_sweep,
                    gen_synthetic, profile_application, scheduler,
                    simulate_run)
from sttsim.config import TECHNOLOGIES, access_cycles, make_core
from sttsim.constraints import KINDS

from reference import reference_run
from workloads import ARCHETYPES, PROFILING_INTERVAL, archetype_params

INTERVAL = 10_000
GRID = [0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0]


def stub_model(system, label):
    """Depth-zero predictor that always answers `label`."""
    model = CorePredictor(feature_names=("l1d_hits",),
                          label_order=tuple(system.labels()))
    return model.fit([[0.0]], [label])


def stub_models(system, label):
    return {kind: stub_model(system, label) for kind in KINDS}


def hot_trace(seed=11, total=120_000):
    """Compute-bound, hit-dominated: top frequency is the only way to be fast."""
    params = SynthParams.for_rate(UniformGaps(300, 500), 0.05, 0.1, total,
                                  seed)
    return gen_synthetic(params, name=f"hot-{seed}")


class TestHistoryTable:
    def test_capacity_evicts_exactly_the_lru(self):
        table = HistoryTable(capacity=120)
        for i in range(121):
            table.record(f"app{i}", "core3", 2.0, "none")
        assert len(table) == 120
        assert "app0" not in table
        assert "app1" in table

    def test_lookup_refreshes_recency(self):
        table = HistoryTable(capacity=2)
        table.record("a", "core1", 1.6, "none")
        table.record("b", "core2", 1.2, "none")
        table.lookup("a", "none")
        table.record("c", "core3", 2.0, "none")
        assert "a" in table and "b" not in table

    def test_lookup_unknown_is_miss(self):
        assert HistoryTable().lookup("ghost", "none") is None

    def test_lookup_requires_matching_constraint(self):
        table = HistoryTable()
        table.record("a", "core1", 1.6, "none")
        assert table.lookup("a", "slack10") is None
        assert table.lookup("a", "none").core == "core1"

    def test_record_existing_refreshes(self):
        table = HistoryTable(capacity=2)
        table.record("a", "core1", 1.6, "none")
        table.record("b", "core2", 1.2, "none")
        table.record("a", "core1", 1.6, "none")
        table.record("c", "core3", 2.0, "none")
        assert len(table) == 2 and "b" not in table
        # "a" is now the least recently used: the next record evicts it.
        table.record("d", "core4", 2.0, "none")
        assert table.lookup("a", "none") is None
        assert table.lookup("c", "none").core == "core3"


class TestDeadlines:
    def test_slack_rules(self, system, power):
        assert Constraint("slack10").deadline(10e-3) == pytest.approx(11e-3)
        assert Constraint("best-perf").deadline(10e-3) == pytest.approx(10e-3)
        sched = Scheduler(system, power, {})
        assert sched.deadline_for(hot_trace(), Constraint("none")) == math.inf

    def test_measured_on_fastest_core(self, system, power):
        sched = Scheduler(system, power, {})
        trace = hot_trace()
        fastest = system.core(system.speed_order()[0])
        run = simulate_run(trace, fastest, fastest.freq_cap_ghz, power)
        got = sched.deadline_for(trace, Constraint("slack20"))
        assert got == pytest.approx(run.wall_time_s * 1.2)


class TestRunApplication:
    def test_requires_a_model(self, system, power):
        sched = Scheduler(system, power, {})
        with pytest.raises(ValueError):
            sched.run_application(hot_trace(), Constraint("none"))

    def test_history_hit_skips_profiling_and_prediction(self, system, power):
        sched = Scheduler(system, power, stub_models(system, "core3"),
                          profiling_interval=INTERVAL)
        trace = hot_trace()
        first = sched.run_application(trace, Constraint("none"))
        second = sched.run_application(trace, Constraint("none"))
        assert not first.from_history and second.from_history
        assert first.profiling_instructions == INTERVAL
        assert second.profiling_instructions == 0
        assert second.prediction_time_s == 0.0
        assert second.prediction_energy_j == 0.0
        assert second.core == first.core
        assert second.path == ((first.core, "history"),)

    def test_history_hit_checks_the_real_deadline(self, system, power):
        sched = Scheduler(system, power, stub_models(system, "core2"),
                          profiling_interval=INTERVAL)
        trace = hot_trace()
        fresh = sched.run_application(trace, Constraint("slack10"))
        hit = sched.run_application(trace, Constraint("slack10"))
        assert hit.from_history
        assert hit.deadline_s == fresh.deadline_s < math.inf
        rerun = simulate_run(trace, system.core(hit.core), hit.freq_ghz, power)
        assert hit.deadline_met == (rerun.wall_time_s <= hit.deadline_s)
        assert hit.violation == (not hit.deadline_met)
        missed = sched.run_application(trace, Constraint("slack10"),
                                       deadline_s=rerun.wall_time_s / 2)
        assert missed.from_history
        assert not missed.deadline_met and missed.violation

    def test_changed_constraint_invalidates_history(self, system, power):
        sched = Scheduler(system, power, stub_models(system, "core3"),
                          profiling_interval=INTERVAL)
        trace = hot_trace()
        sched.run_application(trace, Constraint("none"))
        redo = sched.run_application(trace, Constraint("slack20"))
        assert not redo.from_history

    def test_single_core_system(self, power):
        sys1 = System(cores=(default_system().core("core3"),))
        sched = Scheduler(sys1, power, stub_models(sys1, "core3"),
                          profiling_interval=INTERVAL)
        d = sched.run_application(hot_trace(), Constraint("none"))
        assert d.core == "core3"
        assert d.path == (("core3", "profile"), ("core3", "predicted"))

    def test_deadline_escalation(self, system, power):
        # A stubbed misprediction onto the slowest cap: the compute-bound app
        # cannot meet 10% slack below the top frequency, so the decision must
        # climb until it does.
        trace = hot_trace()
        sweep = exhaustive_sweep(trace, system, power, Constraint("slack10"))
        sched = Scheduler(system, power, stub_models(system, "core2"),
                          profiling_interval=INTERVAL)
        d = sched.run_application(trace, Constraint("slack10"),
                                  deadline_s=sweep.deadline_s)
        assert ("core2", "predicted") in d.path
        assert any(reason == "escalated-deadline" for _, reason in d.path)
        assert d.deadline_met and not d.violation
        rerun = simulate_run(trace, system.core(d.core), d.freq_ghz, power)
        assert rerun.wall_time_s <= sweep.deadline_s

    def test_energy_fallback_to_base(self, system, power):
        # Archetype-C-like app forced onto the 10us core, where every reuse
        # expires: the base path is cheaper, so the decision must fall back.
        params = SynthParams.for_rate(UniformGaps(13_000, 16_000), 0.008,
                                      0.85, 400_000, 31)
        trace = gen_synthetic(params, name="expiring")
        sched = Scheduler(system, power, stub_models(system, "core1"),
                          profiling_interval=INTERVAL)
        d = sched.run_application(trace, Constraint("none"))
        assert (system.base_core, "rejected-energy") in d.path
        assert d.core == system.base_core
        assert d.energy_j <= d.base_energy_j

    def test_never_worse_than_base_path(self, system, power):
        sched = Scheduler(system, power, stub_models(system, "core4"),
                          profiling_interval=INTERVAL)
        for seed in (1, 2, 3):
            d = sched.run_application(hot_trace(seed=seed), Constraint("none"))
            assert d.energy_j <= d.base_energy_j

    def test_decision_sequence_is_deterministic(self, system, power):
        def run():
            sched = Scheduler(system, power, stub_models(system, "core3"),
                              history=HistoryTable(capacity=2),
                              profiling_interval=INTERVAL)
            traces = [hot_trace(seed=s) for s in (5, 6, 5)]
            decisions = [sched.run_application(t, Constraint("none"))
                         for t in traces]
            # One more entry evicts the least recently used app: hot-6, since
            # the history hit on hot-5 refreshed it.
            sched.history.record("x", "core1", 1.6, "none")
            return decisions, [sched.history.lookup(t.name, "none")
                               for t in traces[:2]]
        (d1, h1), (d2, h2) = run(), run()
        assert d1 == d2 and h1 == h2
        assert h1[0] is not None and h1[1] is None


@pytest.fixture
def sim_calls(monkeypatch):
    """Every simulate_run call the scheduler makes, as
    (trace id, core, freq, limit, start)."""
    calls = []

    def counted(trace, core, freq_ghz, power, limit=None, start=0):
        calls.append((id(trace), core.core_id, freq_ghz, limit, start))
        return simulate_run(trace, core, freq_ghz, power, limit, start)

    monkeypatch.setattr(scheduler, "simulate_run", counted)
    return calls


class TestPinnedDecisions:
    """Decisions on the A-D archetypes, pinned by the SHA-256 of their
    `repr`, so a refactor of the decision path cannot move one bit."""

    DIGEST = ("431ad3519f955b7cc38fd762f41ed06e"
              "a2cf954359a6eedf7a25aa869348e0a4")

    def test_fresh_decisions_and_history_hits(self, system, power):
        traces = [gen_synthetic(archetype_params(arch, 4000 + i, i % 2 == 1),
                                name=f"pin-{arch}")
                  for i, arch in enumerate(ARCHETYPES)]
        feats = [profile_application(t, system, power, PROFILING_INTERVAL)[0]
                 for t in traces]
        labels = system.labels()

        def models(shift):
            # Under each constraint every archetype is predicted onto a
            # different core, so the decisions escalate, fall back and stay.
            out = {}
            for k, kind in enumerate(KINDS):
                model = CorePredictor(feature_names=FeatureVector.names(),
                                      label_order=tuple(labels))
                out[kind] = model.fit(
                    [f.row(FeatureVector.names()) for f in feats],
                    [labels[(i + k + shift) % len(labels)]
                     for i in range(len(traces))])
            return out

        decisions = []
        sched = Scheduler(system, power, models(0),
                          profiling_interval=PROFILING_INTERVAL)
        for kind in KINDS:
            for _ in range(2):  # fresh decisions, then history hits
                decisions += [sched.run_application(t, Constraint(kind))
                              for t in traces]
            # History hits held to a deadline no core meets.
            decisions += [sched.run_application(t, Constraint(kind),
                                                deadline_s=d.run_wall_time_s / 2)
                          for t, d in zip(traces, decisions[-len(traces):])]
        # Fresh decisions that no core can save escalate to the fastest cap.
        tight = Scheduler(system, power, models(1),
                          profiling_interval=PROFILING_INTERVAL)
        decisions += [tight.run_application(t, Constraint("best-perf"),
                                            deadline_s=1e-9) for t in traces]
        assert any(d.violation and not d.from_history for d in decisions)
        assert any(d.violation and d.from_history for d in decisions)
        for reason in ("escalated-deadline", "rejected-energy"):
            assert any(r == reason for d in decisions for _, r in d.path)
        text = "\n".join(repr(d) for d in decisions)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST


class TestRunMemo:
    def test_history_hit_runs_nothing(self, system, power, sim_calls):
        sched = Scheduler(system, power, stub_models(system, "core2"),
                          profiling_interval=INTERVAL)
        trace = hot_trace()
        for kind in ("none", "slack10"):
            sched.run_application(trace, Constraint(kind))
            made = len(sim_calls)
            hit = sched.run_application(trace, Constraint(kind))
            assert hit.from_history
            assert len(sim_calls) == made

    def test_each_point_simulated_once(self, system, power, sim_calls):
        sched = Scheduler(system, power, stub_models(system, "core2"),
                          profiling_interval=INTERVAL)
        trace = hot_trace()
        for kind in KINDS:
            sched.run_application(trace, Constraint(kind))
        sched.dispatch_workload([trace], Constraint("slack20"))
        assert len(sim_calls) == len(set(sim_calls))

    def test_a_window_that_reaches_the_end_is_the_whole_run(
            self, system, power, sim_calls):
        # A profiling window longer than the trace covers every access, so
        # its window estimates and the verification runs are one run each.
        trace = hot_trace(total=40_000)
        sched = Scheduler(system, power, stub_models(system, "core2"),
                          profiling_interval=trace.instructions + 1)
        for kind in KINDS:
            sched.run_application(trace, Constraint(kind))
        sched.dispatch_workload([trace], Constraint("slack20"))
        runs = [(core, freq, None if limit is not None
                 and start + limit >= trace.instructions else limit, start)
                for _, core, freq, limit, start in sim_calls]
        assert len(runs) == len(set(runs))
        assert {limit for _, _, _, limit, _ in sim_calls} == {None}

    def test_long_lived_scheduler_matches_fresh_ones(self, system, power):
        models = {kind: stub_model(system, label)
                  for kind, label in zip(KINDS, ("core1", "core2", "core4",
                                                 "core3"))}
        mk = lambda: Scheduler(system, power, models,
                               profiling_interval=INTERVAL)
        traces = [hot_trace(seed=s, total=60_000) for s in (3, 4)]
        shared = mk()
        for kind in KINDS:
            constraint = Constraint(kind)
            for trace in traces:
                assert (shared.run_application(trace, constraint)
                        == mk().run_application(trace, constraint))
            assert (shared.dispatch_workload(traces, constraint)
                    == mk().dispatch_workload(traces, constraint))

    def test_same_name_traces_get_their_own_runs(self, system, power):
        sched = Scheduler(system, power, stub_models(system, "core3"),
                          profiling_interval=INTERVAL)
        first = hot_trace(seed=1)
        second = Trace(hot_trace(seed=2).events, name=first.name)
        d1 = sched.run_application(first, Constraint("none"))
        d2 = sched.run_application(second, Constraint("none"))
        assert d2.from_history and (d2.core, d2.freq_ghz) == (d1.core, d1.freq_ghz)
        rerun = simulate_run(second, system.core(d2.core), d2.freq_ghz, power)
        assert d2.run_wall_time_s == rerun.wall_time_s != d1.run_wall_time_s

    def test_traces_of_one_hash_are_told_apart_by_their_accesses(
            self, system, power, sim_calls):
        # The memo is keyed by the trace, whose hash is its name, length and
        # instructions: a trace that differs only in its write flags gets its
        # own runs, and an equal copy reads the first trace's.
        sched = Scheduler(system, power, stub_models(system, "core3"),
                          profiling_interval=INTERVAL)
        first = hot_trace(seed=1)
        flipped = Trace.from_columns(first.gaps,
                                     bytes(1 - w for w in first.writes),
                                     first.addrs, name=first.name)
        copy = Trace.from_columns(first.gaps, first.writes, first.addrs,
                                  name=first.name)
        assert hash(flipped) == hash(first) and flipped != first == copy
        d1 = sched.run_application(first, Constraint("none"))
        d2 = sched.run_application(flipped, Constraint("none"))
        assert d2.from_history and (d2.core, d2.freq_ghz) == (d1.core, d1.freq_ghz)
        rerun = simulate_run(flipped, system.core(d2.core), d2.freq_ghz, power)
        assert d2.run_wall_time_s == rerun.wall_time_s != d1.run_wall_time_s
        made = len(sim_calls)
        d3 = sched.run_application(copy, Constraint("none"))
        assert d3.from_history and d3.run_wall_time_s == d1.run_wall_time_s
        assert len(sim_calls) == made and len(sched._runs) == 2

    def test_a_decision_makes_at_most_two_lru_passes(self, system, power,
                                                     lru_passes):
        # One for the runs from the first access, one for the runs that
        # resume on the chosen core after the profiling window.
        starts = set()
        for label in ("core1", "core2", "core4"):
            sched = Scheduler(system, power, stub_models(system, label),
                              profiling_interval=INTERVAL)
            trace = hot_trace(seed=7)
            lru_passes.clear()
            sched.run_application(trace, Constraint("slack10"))
            assert 1 <= len(lru_passes) <= 2
            starts.update(n for n, _ in lru_passes if n < len(trace))
        assert starts  # some decision did migrate

    def test_memo_bounded_by_history_capacity(self, system, power, sim_calls):
        sched = Scheduler(system, power, stub_models(system, "core3"),
                          history=HistoryTable(capacity=2),
                          profiling_interval=INTERVAL)
        traces = [hot_trace(seed=s, total=30_000) for s in range(4)]
        for trace in traces:
            sched.run_application(trace, Constraint("none"))
            assert len(sched._runs) <= 2
        # The oldest traces were evicted: dispatching them simulates again.
        made = len(sim_calls)
        sched.dispatch_workload(traces[:1], Constraint("none"))
        assert len(sim_calls) > made
        made = len(sim_calls)
        sched.dispatch_workload(traces[-1:], Constraint("none"))
        assert len(sim_calls) == made


class TestDispatch:
    def test_single_app_matches_run_application(self, system, power):
        trace = hot_trace()
        mk = lambda: Scheduler(system, power, stub_models(system, "core3"),
                               profiling_interval=INTERVAL)
        solo = mk().run_application(trace, Constraint("none"))
        placed = mk().dispatch_workload([trace], Constraint("none")).placements[0]
        assert (placed.core, placed.freq_ghz) == (solo.core, solo.freq_ghz)
        assert placed.energy_j == pytest.approx(solo.energy_j)

    def test_contention_falls_to_next_rank(self, system, power):
        sched = Scheduler(system, power, stub_models(system, "core3"),
                          profiling_interval=INTERVAL)
        traces = [hot_trace(seed=7), hot_trace(seed=8)]
        placed = sched.dispatch_workload(traces, Constraint("none")).placements
        rank = placed[0].ranking
        assert placed[0].core == rank[0] == "core3"
        assert placed[1].core == placed[1].ranking[1]
        assert placed[0].core != placed[1].core
        # The path names the core the model predicted, then the one taken.
        profile = (system.profiling_core, "profile")
        assert placed[0].decision.path == (profile, ("core3", "predicted"))
        assert placed[1].decision.path == (profile, ("core3", "predicted"),
                                           (placed[1].core, "contended"))

    def test_no_double_booking(self, system, power):
        sched = Scheduler(system, power, stub_models(system, "core3"),
                          profiling_interval=INTERVAL)
        traces = [hot_trace(seed=s) for s in range(4)]
        placed = sched.dispatch_workload(traces, Constraint("none")).placements
        slots = {(p.cluster, p.core) for p in placed}
        assert len(slots) == 4

    def test_bounded_dispatch_carries_the_real_deadline(self, system, power):
        sched = Scheduler(system, power, stub_models(system, "core2"),
                          profiling_interval=INTERVAL)
        traces = [hot_trace(seed=s) for s in (11, 12)]
        placed = sched.dispatch_workload(traces, Constraint("slack10")).placements
        for trace, p in zip(traces, placed):
            d = p.decision
            assert d.deadline_s == sched.deadline_for(trace, Constraint("slack10"))
            assert d.deadline_s < math.inf
            rerun = simulate_run(trace, system.core(p.core), p.freq_ghz, power)
            assert d.run_wall_time_s == rerun.wall_time_s
            assert d.deadline_met == (rerun.wall_time_s <= d.deadline_s)
            assert d.violation == (not d.deadline_met)

    def test_a_missed_estimate_commits_the_cap(self, system, power):
        # Archetype B seed 4 on core3 under slack10: the window estimate picks
        # 1.2 GHz, whose full run misses the deadline; the cap meets it. The
        # slot is committed as a fresh decision commits a core.
        trace = gen_synthetic(archetype_params("B", 4, False), name="B4")
        sched = Scheduler(system, power, stub_models(system, "core3"),
                          profiling_interval=INTERVAL)
        deadline = sched.deadline_for(trace, Constraint("slack10"))
        core = system.core("core3")
        estimate = sched._estimate_freq(trace, core, deadline)
        missed = simulate_run(trace, core, estimate, power)
        assert estimate != core.freq_cap_ghz and missed.wall_time_s > deadline
        p = sched.dispatch_workload([trace], Constraint("slack10")).placements[0]
        assert (p.core, p.freq_ghz) == ("core3", core.freq_cap_ghz)
        assert p.decision.deadline_met and not p.decision.violation
        cap = simulate_run(trace, core, core.freq_cap_ghz, power)
        assert p.decision.run_wall_time_s == cap.wall_time_s <= deadline

    def test_rejects_more_apps_than_cores(self, system, power):
        sched = Scheduler(system, power, stub_models(system, "core3"))
        with pytest.raises(ValueError):
            sched.dispatch_workload([hot_trace(seed=s) for s in range(5)],
                                    Constraint("none"))

    def test_slots_and_a_missing_model(self, system, power):
        # One slot per ranked core and cluster. A constraint without a model
        # has none, so even an empty batch names the missing model.
        sched = Scheduler(replace(system, cluster_count=2), power,
                          {"none": stub_model(system, "core3")})
        assert sched.slots(Constraint("none")) == 8
        for call in (sched.slots, partial(sched.dispatch_workload, [])):
            with pytest.raises(ValueError, match=r"^no trained model for "
                                                 r"constraint 'slack10'$"):
                call(Constraint("slack10"))

    def test_rejects_more_apps_than_the_model_ranks(self, system, power):
        # A model that ranks only core3 has one slot per cluster to give.
        model = CorePredictor(feature_names=("l1d_hits",),
                              label_order=("core3",)).fit([[0.0]], ["core3"])
        sched = Scheduler(system, power, {"none": model},
                          profiling_interval=INTERVAL)
        with pytest.raises(ValueError, match=r"^2 apps exceed the 1 cores "):
            sched.dispatch_workload([hot_trace(seed=s) for s in range(2)],
                                    Constraint("none"))
        placed = sched.dispatch_workload([hot_trace()], Constraint("none"))
        assert [p.core for p in placed.placements] == ["core3"]

    def test_clusters_add_capacity(self, power):
        sys2 = replace(default_system(), cluster_count=2)
        sched = Scheduler(sys2, power, stub_models(sys2, "core3"),
                          profiling_interval=INTERVAL)
        traces = [hot_trace(seed=s, total=60_000) for s in range(5)]
        placed = sched.dispatch_workload(traces, Constraint("none")).placements
        assert len({(p.cluster, p.core) for p in placed}) == 5
        assert {p.core for p in placed[:2]} == {"core3"}  # one per cluster


@st.composite
def decision_cases(draw):
    """A system of 1-4 cores drawn from the five technologies, each capped
    on the grid, in 1-2 clusters; 1-5 synthetic apps of at most 3 k
    accesses; a constraint, a profiling window and a model fitted on drawn
    labels."""
    techs = list(TECHNOLOGIES.values())
    cores = tuple(
        make_core(f"core{i + 1}", draw(st.sampled_from(techs)),
                  max_freq_ghz=draw(st.sampled_from(GRID)))
        for i in range(draw(st.sampled_from([1, 2, 3, 4]))))
    system = System(cores=cores, cluster_count=draw(st.sampled_from([1, 2])))
    apps = []
    for i in range(draw(st.sampled_from([1, 2, 3, 4, 5]))):
        gap = draw(st.sampled_from([400, 4_000, 14_000, 50_000, 250_000]))
        fraction = draw(st.sampled_from([0.002, 0.01, 0.05, 0.25]))
        accesses = draw(st.integers(50, 2_400))
        params = SynthParams.for_rate(
            UniformGaps(gap, gap * 3 // 2), fraction,
            draw(st.sampled_from([0.0, 0.3, 0.85])),
            int(accesses / fraction), draw(st.integers(0, 10**6)))
        apps.append(gen_synthetic(params, name=f"app{i}"))
    labels = system.labels()
    rows = draw(st.lists(st.tuples(st.floats(0, 250_000),
                                   st.sampled_from(labels)), min_size=1,
                         max_size=6))
    model = CorePredictor(feature_names=("l1d_hits",),
                          label_order=tuple(labels)).fit(
        [[x] for x, _ in rows], [y for _, y in rows])
    kind = draw(st.sampled_from(KINDS))
    interval = draw(st.sampled_from([2_000, 20_000, 3_000_000]))
    return system, apps, Constraint(kind), model, interval


class TestDecisionProperties:
    """The runtime's rules, on drawn systems, apps and models."""

    @settings(deadline=None, max_examples=50, derandomize=True)
    @given(decision_cases())
    def test_fresh_and_dispatched_decisions(self, case):
        system, apps, constraint, model, interval = case
        assert all(len(app) <= 3_000 for app in apps)
        power = PowerModel()

        def scheduler():
            return Scheduler(system, power, {constraint.kind: model},
                             profiling_interval=interval)

        decisions = [scheduler().run_application(app, constraint)
                     for app in apps]
        # One slot per (cluster, core) that the model ranks.
        slots = len(model.classes_) * system.cluster_count
        assert scheduler().slots(constraint) == slots
        if len(apps) > slots:
            with pytest.raises(ValueError):
                scheduler().dispatch_workload(apps, constraint)
        else:
            placements = scheduler().dispatch_workload(apps,
                                                       constraint).placements
            slots = [(p.cluster, p.core) for p in placements]
            assert len(set(slots)) == len(slots) == len(apps)
            taken = set()
            for p in placements:
                # The highest-ranked (cluster, core) slot still free.
                free = next((cl, lab) for lab in p.ranking
                            for cl in range(system.cluster_count)
                            if (cl, lab) not in taken)
                assert (p.cluster, p.core) == free
                taken.add(free)
            decisions += [p.decision for p in placements]
        for d in decisions:
            assert d.energy_j <= d.base_energy_j
            assert d.path[:2] == ((system.profiling_core, "profile"),
                                  (d.ranking[0], "predicted"))
            assert d.deadline_met == (d.run_wall_time_s <= d.deadline_s)

    @settings(deadline=None, max_examples=30, derandomize=True)
    @given(decision_cases())
    def test_candidate_walk_and_history_hits(self, case):
        system, apps, constraint, model, interval = case
        power = PowerModel()
        order = system.speed_order()

        def at_cap(app, label):
            core = system.core(label)
            return core.freq_cap_ghz, simulate_run(app, core, core.freq_cap_ghz,
                                                   power).wall_time_s

        # Explicit deadlines against the fastest core at its cap: below it
        # every walk ends in a violation, just above it walks escalate.
        for scale in (0.6, 1.1, None):
            sched = Scheduler(system, power, {constraint.kind: model},
                              profiling_interval=interval)
            for app in apps:
                deadline = (None if scale is None
                            else scale * at_cap(app, order[0])[1])
                d = sched.run_application(app, constraint, deadline)
                walked = [label for label, tag in d.path
                          if tag in ("predicted", "escalated-deadline")]
                # The walk goes from the predicted core towards the fastest,
                # and tags each core after the first `escalated-deadline`.
                assert walked == order[order.index(d.ranking[0])::-1][:len(walked)]
                assert d.path[1:1 + len(walked)] == (
                    (walked[0], "predicted"),
                    *((label, "escalated-deadline") for label in walked[1:]))
                # It leaves a core only once that core misses at its cap.
                assert all(at_cap(app, label)[1] > d.deadline_s
                           for label in walked[:-1])
                if d.violation:
                    cap, wall = at_cap(app, walked[-1])
                    assert wall > d.deadline_s
                    assert (d.core, d.freq_ghz) == (walked[-1], cap)
                fallback = d.path[1 + len(walked):]
                assert fallback in ((), ((system.base_core, "rejected-energy"),))
                assert d.core == (fallback[0][0] if fallback else walked[-1])

                with mock.patch.object(scheduler, "simulate_run",
                                       wraps=simulate_run) as sim:
                    hit = sched.run_application(app, constraint, deadline)
                assert hit.from_history and hit.path == ((d.core, "history"),)
                assert (hit.core, hit.freq_ghz) == (d.core, d.freq_ghz)
                assert sim.call_count == 0

    @settings(deadline=None, max_examples=25, derandomize=True)
    @given(decision_cases(), st.sampled_from([1, 2, 120]), st.data())
    def test_a_long_lived_scheduler_decides_as_fresh_ones(self, case,
                                                          capacity, data):
        """One scheduler deciding a drawn sequence of (app, constraint)
        pairs, then a dispatch, with its run memo bounded by the history's
        capacity, decides each exactly as a scheduler made for it alone."""
        system, apps, _, model, interval = case
        power = PowerModel()

        def scheduler():
            return Scheduler(system, power, dict.fromkeys(KINDS, model),
                             history=HistoryTable(capacity),
                             profiling_interval=interval)

        shared = scheduler()
        pairs = data.draw(st.permutations(
            [(app, kind) for app in apps for kind in KINDS]))
        for app, kind in pairs:
            assert (shared.run_application(app, Constraint(kind))
                    == scheduler().run_application(app, Constraint(kind)))
        constraint = Constraint(pairs[0][1])
        if len(apps) <= shared.slots(constraint):
            assert (shared.dispatch_workload(apps, constraint)
                    == scheduler().dispatch_workload(apps, constraint))

    @settings(deadline=None, max_examples=20, derandomize=True)
    @given(decision_cases())
    def test_deadlines_and_their_verdicts_match_the_reference(self, case):
        """`deadline_for` is the constraint's slack applied to the reference
        model's run of the fastest core (`speed_order()[0]`) at its cap, and
        each decision's `deadline_met` is the reference model's verdict on
        the committed (core, frequency)."""
        system, apps, constraint, model, interval = case
        power = PowerModel()
        fastest = system.core(system.speed_order()[0])
        sched = Scheduler(system, power, {constraint.kind: model},
                          profiling_interval=interval)
        for app in apps:
            wall = reference_wall_time(app, fastest, fastest.freq_cap_ghz)
            assert sched.deadline_for(app, constraint) == constraint.deadline(wall)
            d = sched.run_application(app, constraint)
            wall = reference_wall_time(app, system.core(d.core), d.freq_ghz)
            assert d.run_wall_time_s == wall
            assert d.deadline_met == (wall <= d.deadline_s)


def reference_wall_time(app, core, freq_ghz):
    """The wall time of a whole run of `app` on `core` at `freq_ghz`, by
    `tests/reference.py`."""
    geo = core.geometry
    counts = reference_run(
        zip(app.gaps, app.writes, app.addrs), geo.sets, geo.ways,
        geo.line_bytes, core.data_tech.retention_time, core.counter_states_k,
        core.base_cpi, freq_ghz, core.read_cycles(freq_ghz),
        core.write_cycles(freq_ghz), access_cycles(freq_ghz, core.miss_penalty_ns))
    return counts["cycles"] * (1.0 / freq_ghz) * 1e-9
