"""Runtime core selection: history table, profile/predict/verify loop and
multiprogrammed dispatch.

A new application is profiled on the profiling core and the constraint's
model ranks the cores. Every fresh decision, dispatched or not, then makes one
candidate walk (`Scheduler._commit`): it commits the first listed core whose
verified point meets the deadline, else the last listed core at its cap. A
scheduled app walks from the predicted core up to the fastest, and a
prediction that would cost more than the base-core path falls back to it, so
a committed decision never spends more than that fallback. A dispatched app
walks only its highest-ranked free core: the list is the one part of the walk
that differs between the two. Decisions land in a bounded LRU history table;
a repeat encounter skips profiling and prediction entirely.

Every simulation goes through one memo per scheduler, keyed by the trace
and the run's (core, frequency, limit, start), so a decision's
window estimates, verification runs, deadline base and later history hits
each simulate a given point once.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

from .config import CoreSpec, System, voltage_for_frequency
from .constraints import Constraint
from .engine import PowerModel, RunResult, simulate_run
from .features import features_from_run
from .predictor import CorePredictor, check_model
from .trace import Trace

DEFAULT_PROFILING_INTERVAL = 3_000_000
DEFAULT_PREDICTION_TIME_S = 3.23e-6
DEFAULT_MIGRATION_TIME_S = 7.94e-6
DEFAULT_HISTORY_CAPACITY = 120


@dataclass(frozen=True)
class HistoryEntry:
    core: str
    freq_ghz: float
    constraint_kind: str


class HistoryTable:
    """Bounded app -> decision map with least-recently-used replacement.

    An entry only satisfies a lookup under the constraint it was stored
    with; a changed constraint forces re-profiling.
    """

    def __init__(self, capacity: int = DEFAULT_HISTORY_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[str, HistoryEntry] = OrderedDict()

    def __len__(self):
        return len(self._entries)

    def __contains__(self, app: str):
        return app in self._entries

    def lookup(self, app: str, constraint_kind: str) -> HistoryEntry | None:
        entry = self._entries.get(app)
        if entry is None or entry.constraint_kind != constraint_kind:
            return None
        self._entries.move_to_end(app)
        return entry

    def record(self, app: str, core: str, freq_ghz: float,
               constraint_kind: str) -> None:
        self._entries[app] = HistoryEntry(core, freq_ghz, constraint_kind)
        self._entries.move_to_end(app)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)


@dataclass(frozen=True)
class ScheduleDecision:
    app: str
    constraint_kind: str
    core: str
    freq_ghz: float
    path: tuple[tuple[str, str], ...]
    ranking: tuple[str, ...]
    from_history: bool
    profiling_instructions: int
    profiling_time_s: float
    profiling_energy_j: float
    prediction_time_s: float
    prediction_energy_j: float
    migrations: int
    migration_time_s: float
    migration_energy_j: float
    energy_j: float  # committed path total, overheads included
    time_s: float  # committed path total, overheads included
    run_wall_time_s: float  # full run on the final (core, freq)
    base_energy_j: float  # the base-core fallback path's total
    deadline_s: float
    deadline_met: bool
    violation: bool  # no core could meet the deadline


@dataclass(frozen=True)
class AppPlacement:
    app: str
    cluster: int
    core: str
    freq_ghz: float
    completion_s: float
    energy_j: float
    ranking: tuple[str, ...]
    decision: ScheduleDecision


@dataclass(frozen=True)
class WorkloadAssignment:
    placements: tuple[AppPlacement, ...]
    total_energy_j: float


@dataclass
class _PathCost:
    """One candidate (core, freq) with its committed path's price."""

    core: str
    freq_ghz: float
    full_run: RunResult
    energy_j: float
    time_s: float
    migrations: int
    prediction_time_s: float
    prediction_energy_j: float
    migration_time_s: float
    migration_energy_j: float


class Scheduler:
    """Single decision-maker over one system; decisions are serialized and
    deterministic for a fixed app sequence."""

    def __init__(self, system: System, power: PowerModel,
                 models: dict[str, CorePredictor] | None = None,
                 history: HistoryTable | None = None,
                 profiling_interval: int = DEFAULT_PROFILING_INTERVAL,
                 prediction_time_s: float = DEFAULT_PREDICTION_TIME_S,
                 migration_time_s: float = DEFAULT_MIGRATION_TIME_S):
        self.system = system
        self.power = power
        self.models = models or {}
        for model in self.models.values():
            check_model(model, system)
        self.history = history if history is not None else HistoryTable()
        self.profiling_interval = profiling_interval
        self.prediction_time_s = prediction_time_s
        self.migration_time_s = migration_time_s
        prof_core = system.core(system.profiling_core)
        self._overhead_power_w = power.static_power_w(
            voltage_for_frequency(prof_core.dvfs, prof_core.operating_freq_ghz))
        # trace -> {(core_id, freq, limit, start): run}, least recently used
        # first; holds at most history.capacity traces.
        self._runs: OrderedDict[Trace, dict] = OrderedDict()

    # -- simulation ------------------------------------------------------------

    def _simulate(self, trace: Trace, core: CoreSpec, freq_ghz: float,
                  limit: int | None = None, start: int = 0) -> RunResult:
        """`simulate_run` on this scheduler's power model, memoised per
        trace. Traces are matched by equality, so two that share a name but
        not their accesses keep separate runs, and a window that reaches the
        trace's end is keyed as the whole run. Callers share the returned
        result and must not mutate it.
        """
        if limit is not None and start + limit >= trace.instructions:
            limit = None
        runs = self._runs.get(trace)
        if runs is None:
            runs = self._runs[trace] = {}
            while len(self._runs) > self.history.capacity:
                self._runs.popitem(last=False)
        self._runs.move_to_end(trace)
        point = (core.core_id, freq_ghz, limit, start)
        run = runs.get(point)
        if run is None:
            run = runs[point] = simulate_run(trace, core, freq_ghz, self.power,
                                             limit=limit, start=start)
        return run

    # -- deadlines -----------------------------------------------------------

    def deadline_for(self, trace: Trace, constraint: Constraint) -> float:
        """Deadline = best achievable latency, the fastest core at its cap,
        relaxed by the slack."""
        if not constraint.bounded:
            return math.inf
        fastest = self.system.core(self.system.speed_order()[0])
        return constraint.deadline(
            self._simulate(trace, fastest, fastest.freq_cap_ghz).wall_time_s)

    # -- candidate evaluation ------------------------------------------------

    def _estimate_freq(self, trace: Trace, core, deadline_s: float) -> float | None:
        """Energy-best grid frequency by profiled-window estimates, honoring
        the deadline when one applies. None when no frequency looks feasible."""
        best = None
        for freq in core.dvfs.grid():
            est = self._simulate(trace, core, freq, limit=self.profiling_interval)
            scale = trace.instructions / est.instructions
            key = (est.total_energy_j * scale, est.wall_time_s * scale, freq)
            if key[1] <= deadline_s and (best is None or key < best):
                best = key
        return best[2] if best else None

    def _path_cost(self, trace: Trace, core_label: str, freq_ghz: float,
                   prof_run: RunResult | None) -> _PathCost:
        """Committed-path accounting for finishing `trace` on a core.

        A fresh decision starts with the profiling window on the profiling
        core and resumes cold on the final core; prediction and migration
        overheads are charged as time plus profiling-core static power.
        """
        core = self.system.core(core_label)
        full = self._simulate(trace, core, freq_ghz)
        fresh = prof_run is not None
        migrations = int(fresh and core_label != self.system.profiling_core)
        pred_t = self.prediction_time_s if fresh else 0.0
        pred_e = pred_t * self._overhead_power_w
        migr_t = migrations * self.migration_time_s
        migr_e = migr_t * self._overhead_power_w
        if not fresh:
            # A history hit: the app starts directly on the stored core.
            energy, time = full.total_energy_j, full.wall_time_s
        elif migrations == 0:
            # The run continues in place; the full run already covers the
            # profiled window with warm caches.
            energy = full.total_energy_j + pred_e
            time = full.wall_time_s + pred_t
        else:
            rest = self._simulate(trace, core, freq_ghz,
                                  start=prof_run.instructions)
            energy = (prof_run.total_energy_j + rest.total_energy_j
                      + pred_e + migr_e)
            time = (prof_run.wall_time_s + rest.wall_time_s
                    + pred_t + migr_t)
        return _PathCost(core_label, freq_ghz, full, energy, time, migrations,
                         pred_t, pred_e, migr_t, migr_e)

    def _evaluate(self, trace: Trace, core_label: str, deadline_s: float,
                  prof_run: RunResult | None) -> _PathCost | None:
        """Pick a frequency for the core and verify the deadline on the full
        run. Window estimates choose the frequency, but a core is only
        declared infeasible once its cap misses the deadline on a verified
        full run."""
        core = self.system.core(core_label)
        for freq in (self._estimate_freq(trace, core, deadline_s),
                     core.freq_cap_ghz):
            if (freq is not None
                    and self._simulate(trace, core, freq).wall_time_s <= deadline_s):
                return self._path_cost(trace, core_label, freq, prof_run)
        return None

    def _commit(self, trace: Trace, labels, deadline_s: float,
                prof_run: RunResult, path: list) -> _PathCost:
        """The candidate walk: the first of `labels` whose verified point
        meets the deadline, else the last one at its cap, which then misses
        it. Each core after the first is tagged `escalated-deadline`."""
        for i, label in enumerate(labels):
            if i:
                path.append((label, "escalated-deadline"))
            cost = self._evaluate(trace, label, deadline_s, prof_run)
            if cost is not None:
                return cost
        return self._path_cost(trace, label, self.system.core(label).freq_cap_ghz,
                               prof_run)

    # -- the main loop -------------------------------------------------------

    def _model(self, constraint: Constraint) -> CorePredictor:
        model = self.models.get(constraint.kind)
        if model is None:
            raise ValueError(f"no trained model for constraint {constraint.kind!r}")
        return model

    def slots(self, constraint: Constraint) -> int:
        """The most apps one dispatch under `constraint` can place: one per
        (cluster, core) slot among the cores that its model ranks."""
        return len(self._model(constraint).classes_) * self.system.cluster_count

    def _front(self, trace: Trace, constraint: Constraint
               ) -> tuple[RunResult, tuple[str, ...], list[tuple[str, str]]]:
        """The front end of every fresh decision, dispatched or not: the
        profiling window on the profiling core (as
        `features.profile_application` runs it), the constraint's model's
        ranking of the cores, predicted core first, and the path so far."""
        model = self._model(constraint)
        core = self.system.core(self.system.profiling_core)
        prof_run = self._simulate(trace, core, core.operating_freq_ghz,
                                  limit=self.profiling_interval)
        ranking = tuple(model.rank_labels(features_from_run(prof_run)))
        return prof_run, ranking, [(core.core_id, "profile"),
                                   (ranking[0], "predicted")]

    def run_application(self, trace: Trace, constraint: Constraint,
                        deadline_s: float | None = None) -> ScheduleDecision:
        """Decide where `trace` runs; see the module docstring for the flow."""
        if deadline_s is None:
            deadline_s = self.deadline_for(trace, constraint)

        entry = self.history.lookup(trace.name, constraint.kind)
        if entry is not None:
            cost = self._path_cost(trace, entry.core, entry.freq_ghz, None)
            return self._decision(trace, constraint, cost, ((entry.core, "history"),),
                                  ranking=(), prof_run=None, deadline_s=deadline_s)

        prof_run, ranking, path = self._front(trace, constraint)
        order = self.system.speed_order()
        cost = self._commit(trace, order[order.index(ranking[0])::-1],
                            deadline_s, prof_run, path)

        base_label = self.system.base_core
        base_energy = math.inf
        if cost.core != base_label:
            base_cost = self._evaluate(trace, base_label, deadline_s, prof_run)
            if base_cost is not None:
                base_energy = base_cost.energy_j
                if cost.energy_j >= base_cost.energy_j:
                    cost = base_cost
                    path.append((base_label, "rejected-energy"))

        self.history.record(trace.name, cost.core, cost.freq_ghz, constraint.kind)
        return self._decision(trace, constraint, cost, path, ranking, prof_run,
                              deadline_s, base_energy)

    def _decision(self, trace: Trace, constraint: Constraint, cost: _PathCost,
                  path, ranking, prof_run: RunResult | None, deadline_s: float,
                  base_energy: float = math.inf) -> ScheduleDecision:
        """The one constructor of decisions. `prof_run` is None for a history
        hit; an infinite `base_energy` (no feasible base-core path was
        priced) reads as the committed energy."""
        from_history = prof_run is None
        met = cost.full_run.wall_time_s <= deadline_s
        return ScheduleDecision(
            app=trace.name,
            constraint_kind=constraint.kind,
            core=cost.core,
            freq_ghz=cost.freq_ghz,
            path=tuple(path),
            ranking=tuple(ranking),
            from_history=from_history,
            profiling_instructions=0 if from_history else prof_run.instructions,
            profiling_time_s=0.0 if from_history else prof_run.wall_time_s,
            profiling_energy_j=0.0 if from_history else prof_run.total_energy_j,
            prediction_time_s=cost.prediction_time_s,
            prediction_energy_j=cost.prediction_energy_j,
            migrations=cost.migrations,
            migration_time_s=cost.migration_time_s,
            migration_energy_j=cost.migration_energy_j,
            energy_j=cost.energy_j,
            time_s=cost.time_s,
            run_wall_time_s=cost.full_run.wall_time_s,
            base_energy_j=base_energy if math.isfinite(base_energy) else cost.energy_j,
            deadline_s=deadline_s,
            deadline_met=met,
            violation=not met,
        )

    # -- multiprogrammed dispatch ---------------------------------------------

    def dispatch_workload(self, traces: list[Trace], constraint: Constraint,
                          deadline_s: float | None = None) -> WorkloadAssignment:
        """Place each app (in listed order) on its highest-ranked free core.

        One app per core, no preemption, no queueing: more apps than
        `slots(constraint)` is rejected. Profiling is a staging phase and
        does not occupy a core. Each app's deadline is
        `deadline_s` or, when that is None, its `deadline_for` the
        constraint, as in `run_application`. The candidate walk lists only
        the chosen core, so dispatch never escalates to another core or
        falls back to the base core.
        """
        slots = self.slots(constraint)
        if len(traces) > slots:
            raise ValueError(f"{len(traces)} apps exceed the {slots} cores "
                             "that the model ranks; queueing is not modeled")

        taken: set[tuple[int, str]] = set()
        placements = []
        for trace in traces:
            prof_run, ranking, path = self._front(trace, constraint)
            cluster, chosen = next(
                (cl, lab) for lab in ranking
                for cl in range(self.system.cluster_count)
                if (cl, lab) not in taken)
            taken.add((cluster, chosen))
            bound = (deadline_s if deadline_s is not None
                     else self.deadline_for(trace, constraint))
            cost = self._commit(trace, [chosen], bound, prof_run, path)
            if chosen != ranking[0]:
                path.append((chosen, "contended"))
            decision = self._decision(trace, constraint, cost, path, ranking,
                                      prof_run, bound)
            placements.append(AppPlacement(
                app=trace.name, cluster=cluster, core=chosen,
                freq_ghz=cost.freq_ghz, completion_s=cost.time_s,
                energy_j=cost.energy_j, ranking=ranking, decision=decision))
        return WorkloadAssignment(
            placements=tuple(placements),
            total_energy_j=sum(p.energy_j for p in placements))
