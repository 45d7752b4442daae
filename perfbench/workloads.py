"""The three workloads: set-up, one measured round, and the checks.

Each workload is a closed loop with one caller. A round repeats the same
operations on the same inputs from empty caches: every CLI call builds its
caches afresh, and every round of schedule-stream starts a new Scheduler
with an empty history table. Only the program's calls are timed; the checks
run between them, untimed.

An operation (one CLI call, one decision, one dispatch batch, one model
file) counts as failed when one of its checks fails. Failures of the one
known fault, the unchecked deadline of a history hit, are counted apart so
that they do not make the run incorrect.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import statistics
import time
from collections import Counter
from pathlib import Path

from sttsim import cli, configfile, engine, features, predictor, scheduler
from sttsim import trace as strace
from sttsim.constraints import KINDS, Constraint

import inputs
from reference import fastest_core, lru_misses, oracle_label, reference_run

KNOWN_FAULT = "a history hit under a bounded constraint reports deadline inf"

_SLACK = {"none": math.inf, "slack20": 0.20, "slack10": 0.10, "best-perf": 0.0}


class Tally:
    """Operations attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known_fault = 0
        self.problems: list[str] = []

    def op(self, problems, known: bool = False) -> None:
        self.attempted += 1
        if problems or known:
            self.failed += 1
        self.known_fault += known
        self.problems.extend(problems)

    def round_check(self, problems) -> None:
        """A property of a whole round, not of one operation."""
        self.problems.extend(problems)


class RunContext:
    """What the rounds of one run share: the tally, the first round's
    results and the tracer (None when untraced)."""

    def __init__(self, tracer):
        self.tally = Tally()
        self.first: dict = {}
        self.tracer = tracer

    def request(self, name: str) -> None:
        """Names the operation that starts next; its spans carry the name."""
        if self.tracer:
            self.tracer.request = name


class Digest:
    """SHA-256 over the exact text of every simulated result of a round."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *items) -> None:
        for item in items:
            self._h.update(repr(item).encode())
            self._h.update(b"\n")

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _fields(obj) -> tuple:
    return tuple(sorted(dataclasses.asdict(obj).items()))


def _events(trace):
    return ((e.gap, e.op, e.addr) for e in trace.events)


def _events_sha(trace) -> str:
    h = hashlib.sha256()
    for event in _events(trace):
        h.update(repr(event).encode())
    return h.hexdigest()


@contextlib.contextmanager
def _captured(site, attr, store: list):
    """Keep the results `site.attr` returns while the block runs."""
    original = getattr(site, attr)

    def keep(*args, **kwargs):
        result = original(*args, **kwargs)
        store.append(result)
        return result

    setattr(site, attr, keep)
    try:
        yield store
    finally:
        setattr(site, attr, original)


def _run_cli(argv) -> tuple[int, float]:
    """(exit code, seconds) of one in-process CLI call; its printout is
    dropped so that the benchmark's own output stays parseable."""
    with contextlib.redirect_stdout(io.StringIO()):
        started = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - started
    return code, elapsed


def _write(spec, work: Path) -> tuple[Path, object]:
    trace = inputs.generate(spec)
    path = work / f"{spec.name}.trace"
    strace.write_trace(trace, path, header=spec.params.describe())
    return path, trace


def _config(work: Path):
    path = work / "bench.cfg"
    path.write_text(inputs.CONFIG_TEXT)
    return path, configfile.parse_config(inputs.CONFIG_TEXT)


def percentile(samples, pct: int):
    """The pct-th percentile when at least ten samples lie beyond it."""
    if len(samples) - math.ceil(pct / 100 * len(samples)) < 10:
        return None
    if pct == 50:
        return statistics.median(samples)
    return statistics.quantiles(samples, n=100)[pct - 1]


# -- simulate-long -----------------------------------------------------------

@dataclasses.dataclass
class _LongInput:
    spec: inputs.TraceSpec
    path: Path
    events: int
    instructions: int
    events_sha: str
    reference: bool  # compared with the retention reference in this run


class SimulateLong:
    """`sttsim simulate` on a few long trace files, one point each."""

    name = "simulate-long"

    def setup(self, seed: int, work: Path) -> tuple[float, list]:
        items, busy = [], 0.0
        for i, spec in enumerate(inputs.simulate_long_specs(seed)):
            started = time.perf_counter()
            path, trace = _write(spec, work)
            busy += time.perf_counter() - started
            # Half the traces per run, one expiration-dominated among them,
            # alternating with the seed.
            items.append(_LongInput(spec, path, len(trace), trace.instructions,
                                    _events_sha(trace), i % 2 == seed % 2))
            del trace  # one generated trace in memory at a time
        return busy, items

    def run_round(self, items, work: Path, ctx: RunContext) -> dict:
        config = configfile.default_config()
        digest = Digest()
        busy, accesses = 0.0, 0
        for item in items:
            spec = item.spec
            ctx.request(f"simulate-{spec.name}")
            argv = ["simulate", "--trace", str(item.path), "--core", spec.core,
                    "--freq", repr(spec.freq_ghz), "--out", str(work / "sim"),
                    "--no-timestamp"]
            loaded, runs = [], []
            with _captured(cli, "load_trace", loaded), \
                    _captured(cli, "simulate_run", runs):
                code, elapsed = _run_cli(argv)
            busy += elapsed
            problems = [] if code == 0 else [f"{spec.name}: exit code {code}"]
            if runs:
                run = runs[0]
                accesses += run.mem_accesses
                digest.add(spec.name, _fields(run))
                problems += self._check(item, run, loaded[0], ctx.first,
                                        config.system.core(spec.core))
            else:
                problems.append(f"{spec.name}: no run result")
            del loaded, runs
            ctx.tally.op(problems)
        return {"busy": busy, "accesses": accesses,
                "digest": digest.hexdigest()}

    @staticmethod
    def _check(item, run, trace, first: dict, core) -> list[str]:
        name = item.spec.name
        st = run.stats
        energy = (run.cache_dynamic_j + run.cache_leakage_j
                  + run.core_dynamic_j + run.core_static_j)
        checks = {
            "hits + misses == mem_accesses": st.hits + st.misses == run.mem_accesses,
            "every access simulated": run.mem_accesses == item.events,
            "instructions == trace's": run.instructions == item.instructions,
            "expiration_misses <= misses": st.expiration_misses <= st.misses,
            "energy parts sum to total": math.isclose(
                energy, run.total_energy_j, rel_tol=1e-12),
        }
        key = _fields(run)
        if name in first:
            # Later rounds must repeat the fully checked first round exactly.
            checks["same result as the first round"] = first[name] == key
        else:
            first[name] = key
            geo = core.geometry
            checks.update({
                "file round-trips the generated events":
                    _events_sha(trace) == item.events_sha,
                "instructions == generator's total":
                    trace.instructions == item.spec.params.total_instructions
                    == item.instructions,
                "shadow_misses == reference LRU misses": st.shadow_misses
                    == lru_misses(_events(trace), geo.sets, geo.ways,
                                  geo.line_bytes),
            })
            if item.reference:
                ref = reference_run(_events(trace), core, run.freq_ghz)
                checks["counters match the retention reference"] = (
                    ref["counters"] == dataclasses.asdict(st))
                checks["cycles match the retention reference"] = (
                    ref["cycles"] == run.cycles)
        return [f"{name}: {what}" for what, ok in checks.items() if not ok]

    def extra_metrics(self, rounds) -> dict:
        return {}


# -- train-oracle --------------------------------------------------------------

class TrainOracle:
    """`sttsim train --all-constraints` over a small A-D suite read from
    text files."""

    name = "train-oracle"
    scale = 0.3

    def setup(self, seed: int, work: Path) -> tuple[float, dict]:
        started = time.perf_counter()
        cfg_path, cfg = _config(work)
        paths, events = [], 0
        for spec in inputs.suite_specs(seed, "train", self.scale,
                                       both_families=False):
            path, trace = _write(spec, work)
            paths.append(path)
            events += len(trace)
        busy = time.perf_counter() - started
        points = sum(len(c.dvfs.grid()) for c in cfg.system.cores)
        return busy, {"config": cfg_path, "cfg": cfg, "paths": paths,
                      "asked": points * events, "labels": None}

    def run_round(self, state, work: Path, ctx: RunContext) -> dict:
        out = work / "models"
        ctx.request("train")
        argv = ["train", "--config", str(state["config"]), "--traces",
                *map(str, state["paths"]), "--all-constraints", "--out",
                str(out), "--no-timestamp"]
        code, elapsed = _run_cli(argv)
        if state["labels"] is None:
            with ctx.tracer.paused() if ctx.tracer else contextlib.nullcontext():
                state["labels"] = self._oracle_labels(state)
        digest = Digest()
        for kind in KINDS:
            path = out / f"model-{kind}.txt"
            if code != 0 or not path.is_file():
                ctx.tally.op([f"model-{kind}: exit code {code}, no model file"])
                continue
            text = path.read_text()
            digest.add(kind, text)
            ctx.tally.op(self._check_model(path, text, kind,
                                           state["labels"][kind]))
        return {"busy": elapsed, "accesses": state["asked"], "digest": digest.hexdigest()}

    @staticmethod
    def _oracle_labels(state) -> dict:
        """Each trace's label per constraint, by the benchmark's own rule
        over the 22-point sweep."""
        system, power = state["cfg"].system, state["cfg"].power
        order = system.labels()
        labels = {kind: Counter() for kind in KINDS}
        for path in state["paths"]:
            trace = strace.load_trace(path)
            rows = [(core.core_id, run.wall_time_s, run.total_energy_j)
                    for core in system.cores for freq in core.dvfs.grid()
                    for run in [engine.simulate_run(trace, core, freq, power)]]
            for kind in KINDS:
                labels[kind][oracle_label(rows, _SLACK[kind], order)] += 1
        return labels

    @staticmethod
    def _check_model(path: Path, text: str, kind: str,
                     expected: Counter) -> list[str]:
        leaves = Counter()
        for line in text.splitlines():
            parts = line.split()
            if parts[:2] == ["node", "leaf"]:
                for item in parts[3].split(","):
                    label, _, count = item.partition("=")
                    leaves[label] += int(count)
        model, constraint = predictor.load_model(path)
        checks = {
            "constraint matches the file": constraint.kind == kind,
            "leaf counts match the oracle labels": leaves == expected,
            "reloads and re-dumps byte-identically":
                predictor.dump_tree(model, constraint) == text,
        }
        return [f"model-{kind}: {what}" for what, ok in checks.items() if not ok]

    def extra_metrics(self, rounds) -> dict:
        return {}


# -- schedule-stream -----------------------------------------------------------

class ScheduleStream:
    """Fresh decisions, history hits and dispatch batches over held-out apps
    with models trained in set-up."""

    name = "schedule-stream"
    scale = 0.35
    batch = 4

    def setup(self, seed: int, work: Path) -> tuple[float, dict]:
        started = time.perf_counter()
        cfg = configfile.parse_config(inputs.CONFIG_TEXT)
        system, power = cfg.system, cfg.power
        oracle = []
        for spec in inputs.suite_specs(seed + 500_000, "seed", self.scale):
            trace = inputs.generate(spec)
            feats, _ = features.profile_application(
                trace, system, power, cfg.profiling_interval)
            rows = engine.exhaustive_sweep(trace, system, power,
                                           Constraint("none")).rows
            oracle.append((feats, rows))
        models = {}
        for kind in KINDS:
            constraint = Constraint(kind)
            rows = tuple((feats, engine.select_best(rows, system, constraint)[0].core_id)
                         for feats, rows in oracle)
            models[kind] = predictor.train_tree(predictor.TrainingSet(
                rows=rows, constraint=constraint,
                label_order=tuple(system.labels())))
        apps = [inputs.generate(spec) for spec in
                inputs.held_out_specs(seed + 900_000, self.scale)]
        apps.append(inputs.phase_change_app(seed * 1000 + 5, "app-phase"))
        apps.append(inputs.fallback_app(seed * 1000 + 7, "app-fallback"))
        busy = time.perf_counter() - started
        return busy, {"cfg": cfg, "models": models, "apps": apps,
                      "expected": None}

    def run_round(self, state, work: Path, ctx: RunContext) -> dict:
        cfg, apps = state["cfg"], state["apps"]
        sched = scheduler.Scheduler(
            cfg.system, cfg.power, state["models"],
            history=scheduler.HistoryTable(cfg.history_capacity),
            profiling_interval=cfg.profiling_interval,
            prediction_time_s=cfg.prediction_time_s,
            migration_time_s=cfg.migration_time_s)
        if state["expected"] is None:
            state["expected"] = _ScheduleReference(cfg.system, apps)
        ref = state["expected"]
        digest = Digest()
        fresh_ms, hit_ms, dispatch_ms = [], [], []
        accesses = 0
        escalations = fallbacks = 0
        committed = 0.0
        for kind in KINDS:
            constraint = Constraint(kind)
            chosen = {}
            for i, app in enumerate(apps):
                ctx.request(f"decision-{kind}-{i}")
                started = time.perf_counter()
                d = sched.run_application(app, constraint)
                fresh_ms.append((time.perf_counter() - started) * 1e3)
                accesses += len(app.events)
                committed += d.energy_j
                chosen[app.name] = (d.core, d.freq_ghz)
                escalations += any(r == "escalated-deadline" for _, r in d.path)
                fallbacks += any(r == "rejected-energy" for _, r in d.path)
                digest.add(_fields(d))
                ctx.tally.op(ref.check_fresh(d, app, kind))
            for i, app in enumerate(apps):
                ctx.request(f"hit-{kind}-{i}")
                started = time.perf_counter()
                d = sched.run_application(app, constraint)
                hit_ms.append((time.perf_counter() - started) * 1e3)
                accesses += len(app.events)
                digest.add(_fields(d))
                problems, known = ref.check_hit(d, app, kind, chosen[app.name])
                ctx.tally.op(problems, known)
        for kind in KINDS:
            constraint = Constraint(kind)
            for b in range(0, len(apps), self.batch):
                group = apps[b:b + self.batch]
                ctx.request(f"dispatch-{kind}-{b // self.batch}")
                started = time.perf_counter()
                assignment = sched.dispatch_workload(group, constraint)
                dispatch_ms.append((time.perf_counter() - started) * 1e3)
                accesses += sum(len(app.events) for app in group)
                digest.add(*(_fields(p) for p in assignment.placements))
                ctx.tally.op(ref.check_batch(assignment, group))
        ctx.tally.round_check(
            [what for what, ok in (("no escalation", escalations > 0),
                                   ("no base-core fallback", fallbacks > 0))
             if not ok])
        busy = (sum(fresh_ms) + sum(hit_ms) + sum(dispatch_ms)) / 1e3
        return {"busy": busy, "accesses": accesses, "digest": digest.hexdigest(),
                "fresh_ms": fresh_ms, "hit_ms": hit_ms,
                "dispatch_ms": dispatch_ms, "committed_energy_j": committed,
                "escalations": escalations, "fallbacks": fallbacks}

    def extra_metrics(self, rounds) -> dict:
        fresh = [x for r in rounds for x in r["fresh_ms"]]
        hits = [x for r in rounds for x in r["hit_ms"]]
        batches = [x for r in rounds for x in r["dispatch_ms"]]
        out = {}
        for name, samples, pct in (("decision_ms_p50", fresh, 50),
                                   ("decision_ms_p90", fresh, 90),
                                   ("history_hit_ms_p50", hits, 50),
                                   ("dispatch_ms_p50", batches, 50)):
            value = percentile(samples, pct)
            if value is not None:
                out[name] = (value, "ms", len(samples))
        out["committed_energy_j"] = (rounds[0]["committed_energy_j"], "J",
                                     len(rounds[0]["fresh_ms"]))
        out["escalations"] = (rounds[0]["escalations"], "count", 1)
        out["fallbacks"] = (rounds[0]["fallbacks"], "count", 1)
        return out


class _ScheduleReference:
    """Independent expectations for every app: the deadline base (the
    fastest core at its cap) and the wall time of any committed point, both
    from the retention reference."""

    def __init__(self, system, apps):
        self.system = system
        self.labels = system.labels()
        self.fastest = fastest_core(system.cores)
        self._walls = {}
        self.best = {app.name: self.wall(app, self.fastest.core_id,
                                         self.fastest.dvfs.max_freq_ghz)
                     for app in apps}

    def wall(self, app, core_id: str, freq: float) -> float:
        key = (app.name, core_id, freq)
        if key not in self._walls:
            core = self.system.core(core_id)
            self._walls[key] = reference_run(_events(app), core, freq)["wall_time_s"]
        return self._walls[key]

    def deadline(self, app, kind: str) -> float:
        slack = _SLACK[kind]
        return math.inf if math.isinf(slack) else self.best[app.name] * (1.0 + slack)

    def check_fresh(self, d, app, kind: str) -> list[str]:
        deadline = self.deadline(app, kind)
        checks = {
            "energy_j <= base_energy_j": d.energy_j <= d.base_energy_j,
            "profiled once": not d.from_history
                and d.profiling_instructions == inputs.PROFILING_INTERVAL,
            "deadline is the slack over the fastest core at its cap":
                d.deadline_s == deadline,
            "committed run matches the reference":
                d.core in self.labels
                and d.run_wall_time_s == self.wall(app, d.core, d.freq_ghz),
        }
        if d.violation:
            checks["a violation runs the fastest core at its cap"] = (
                d.core == self.fastest.core_id
                and d.freq_ghz == self.fastest.dvfs.max_freq_ghz)
        else:
            checks["meets the deadline"] = (
                d.core in self.labels
                and self.wall(app, d.core, d.freq_ghz) <= deadline)
        return [f"{kind} {app.name}: {what}" for what, ok in checks.items() if not ok]

    def check_hit(self, d, app, kind: str, first) -> tuple[list[str], bool]:
        checks = {
            "history hit": d.from_history,
            "same (core, freq) as the first decision":
                (d.core, d.freq_ghz) == first,
            "no profiling": d.profiling_instructions == 0
                and d.profiling_time_s == 0.0,
            "path is the history entry": d.path == ((first[0], "history"),),
        }
        problems = [f"{kind} {app.name} hit: {what}"
                    for what, ok in checks.items() if not ok]
        deadline = self.deadline(app, kind)
        known = not (d.deadline_s == deadline and d.deadline_met
                     == (self.wall(app, d.core, d.freq_ghz) <= deadline))
        return problems, known

    def check_batch(self, assignment, group) -> list[str]:
        taken = set()
        problems = []
        for trace, p in zip(group, assignment.placements):
            expected = next(((cl, lab) for lab in p.ranking
                             for cl in range(self.system.cluster_count)
                             if (cl, lab) not in taken), None)
            if sorted(p.ranking) != sorted(self.labels):
                problems.append(f"{p.app}: ranking is not a permutation of the cores")
            if (p.cluster, p.core) != expected:
                problems.append(f"{p.app}: not the highest-ranked free core")
            if (p.cluster, p.core) in taken:
                problems.append(f"{p.app}: ({p.cluster}, {p.core}) double-booked")
            taken.add((p.cluster, p.core))
            if p.app != trace.name:
                problems.append(f"{p.app}: placed out of order")
        if len(assignment.placements) != len(group):
            problems.append("batch lost an app")
        return problems


WORKLOADS = {w.name: w for w in (SimulateLong(), TrainOracle(), ScheduleStream())}
