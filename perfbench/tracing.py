"""Spans around the program's public functions, recorded from outside it.

`installed(tracer)` replaces every public function of `trace`, `engine`,
`features`, `predictor`, `scheduler` and `cli` that the benchmark times with
a wrapper, at every module that imported it, and puts the originals back on
exit. Nothing is wrapped unless a traced run asks for it, so an untraced run
executes the program exactly as shipped.

A span is `(name, start, end, parent, request, phase, round, attrs)`. The
benchmark sets `request` to one identifier per operation (a CLI call, a
decision, a dispatch batch), so all spans of one decision share it. Spans
stay in memory until `report` turns them into per-layer metrics and the
JSON document the run writes out.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import sttsim
from sttsim import cli, engine, features, predictor, scheduler
from sttsim import trace as strace

_MODULES = (sttsim, strace, engine, features, predictor, scheduler, cli)


def _events(args, kwargs, result):
    return {"events": len(result.events)}


def _sim_attrs(args, kwargs, result):
    # simulate_run(trace, core, freq_ghz, power, limit=None, start=0)
    trace, core, freq = args[0], args[1], args[2]
    limit = kwargs.get("limit", args[4] if len(args) > 4 else None)
    start = kwargs.get("start", args[5] if len(args) > 5 else 0)
    key = (trace.name, len(trace.events), core.core_id, freq, limit, start)
    return {"accesses": result.stats.accesses, "key": key}


def _decision_attrs(args, kwargs, result):
    return {"from_history": result.from_history}


# (owner, attribute, span name, attrs of a finished call)
_TARGETS = (
    (strace, "gen_synthetic", "trace.gen", _events),
    (strace, "serialize_trace", "trace.serialize", None),
    (strace, "parse_trace", "trace.parse", _events),
    (strace, "load_trace", "trace.load", _events),
    (engine, "simulate_run", "engine.simulate_run", _sim_attrs),
    (engine, "exhaustive_sweep", "engine.sweep", None),
    (features, "profile_application", "features.profile", None),
    (predictor, "label_oracle", "predictor.label_oracle", None),
    (predictor.CorePredictor, "fit", "predictor.fit", None),
    (predictor.CorePredictor, "predict_one", "predictor.predict", None),
    (predictor.CorePredictor, "rank_labels", "predictor.predict", None),
    (predictor, "save_model", "predictor.model_io", None),
    (predictor, "load_model", "predictor.model_io", None),
    (scheduler.Scheduler, "run_application", "scheduler.run_application",
     _decision_attrs),
    (scheduler.Scheduler, "dispatch_workload", "scheduler.dispatch", None),
    (cli, "cmd_simulate", "cli.simulate", None),
    (cli, "cmd_train", "cli.train", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.request: str | None = None
        self.phase = "setup"
        self.round = -1
        self.enabled = True

    @contextmanager
    def paused(self):
        """Calls made inside the block (the benchmark's own checks) leave
        no spans."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def wrap(self, name, fn, attrs):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), None,
                    stack[-1] if stack else None, self.request, self.phase,
                    self.round, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span[7] = attrs(args, kwargs, result)
            return result
        return traced


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target at its definition and at each import site."""
    replaced = []
    try:
        for owner, attr, name, attrs in _TARGETS:
            original = getattr(owner, attr)
            wrapper = tracer.wrap(name, original, attrs)
            sites = [owner] if isinstance(owner, type) else _MODULES
            for site in sites:
                if site.__dict__.get(attr) is original:
                    replaced.append((site, attr, original))
                    setattr(site, attr, wrapper)
        yield tracer
    finally:
        for site, attr, original in reversed(replaced):
            setattr(site, attr, original)


# name -> (unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = {
    "trace.load_s": ("s", "lower"),
    "trace.parse_events_per_s": ("events/s", "higher"),
    "trace.events_loaded": ("count", "lower"),
    "trace.gen_s": ("s", "lower"),
    "trace.serialize_s": ("s", "lower"),
    "cache.accesses": ("count", "lower"),
    "engine.simulate_run_calls": ("count", "lower"),
    "engine.simulate_run_s": ("s", "lower"),
    "engine.accesses_per_s": ("accesses/s", "higher"),
    "engine.unique_run_ratio": ("ratio", "higher"),
    "engine.sweep_calls": ("count", "lower"),
    "engine.sweep_s": ("s", "lower"),
    "features.profile_calls": ("count", "lower"),
    "features.profile_s": ("s", "lower"),
    "predictor.label_oracle_calls": ("count", "lower"),
    "predictor.label_oracle_s": ("s", "lower"),
    "predictor.fit_s": ("s", "lower"),
    "predictor.predict_s": ("s", "lower"),
    "predictor.model_io_s": ("s", "lower"),
    "scheduler.run_application_s": ("s", "lower"),
    "scheduler.dispatch_s": ("s", "lower"),
    "scheduler.sims_per_decision": ("count", "lower"),
    "scheduler.sims_per_history_hit": ("count", "lower"),
    "cli.simulate_s": ("s", "lower"),
    "cli.train_s": ("s", "lower"),
}


def _ratio(num, den):
    return num / den if den else 0.0


def report(tracer: Tracer, rounds: int, setups: int) -> dict:
    """Per-layer metrics, each per measured round (set-up layers: per set-up),
    plus self time by span name and the spans themselves."""
    busy = defaultdict(float)
    calls = Counter()
    setup_busy = defaultdict(float)
    events = Counter()
    accesses = 0
    keys_by_round = defaultdict(set)
    sims_by_request = Counter()
    decisions = {}  # request -> from_history
    child_time = defaultdict(float)
    for span in tracer.spans:
        if span[3] is not None:
            child_time[span[3]] += span[2] - span[1]
    self_s = defaultdict(float)
    for i, (name, start, end, _, request, phase, rnd, attrs) in enumerate(tracer.spans):
        self_s[name] += end - start - child_time[i]
        if phase == "setup":
            setup_busy[name] += end - start
            continue
        busy[name] += end - start
        calls[name] += 1
        if attrs and "events" in attrs:
            events[name] += attrs["events"]
        if name == "engine.simulate_run":
            accesses += attrs["accesses"]
            keys_by_round[rnd].add(attrs["key"])
            sims_by_request[request] += 1
        elif name == "scheduler.run_application":
            decisions[request] = attrs["from_history"]

    fresh = [r for r, hit in decisions.items() if not hit]
    hits = [r for r, hit in decisions.items() if hit]
    per_round = lambda v: v / rounds
    metrics = {
        "trace.load_s": per_round(busy["trace.load"]),
        "trace.parse_events_per_s": _ratio(events["trace.parse"],
                                           busy["trace.parse"]),
        "trace.events_loaded": per_round(events["trace.load"]),
        "trace.gen_s": setup_busy["trace.gen"] / setups,
        "trace.serialize_s": setup_busy["trace.serialize"] / setups,
        "cache.accesses": per_round(accesses),
        "engine.simulate_run_calls": per_round(calls["engine.simulate_run"]),
        "engine.simulate_run_s": per_round(busy["engine.simulate_run"]),
        "engine.accesses_per_s": _ratio(accesses, busy["engine.simulate_run"]),
        "engine.unique_run_ratio": _ratio(
            sum(len(k) for k in keys_by_round.values()),
            calls["engine.simulate_run"]),
        "engine.sweep_calls": per_round(calls["engine.sweep"]),
        "engine.sweep_s": per_round(busy["engine.sweep"]),
        "features.profile_calls": per_round(calls["features.profile"]),
        "features.profile_s": per_round(busy["features.profile"]),
        "predictor.label_oracle_calls": per_round(calls["predictor.label_oracle"]),
        "predictor.label_oracle_s": per_round(busy["predictor.label_oracle"]),
        "predictor.fit_s": per_round(busy["predictor.fit"]),
        "predictor.predict_s": per_round(busy["predictor.predict"]),
        "predictor.model_io_s": per_round(busy["predictor.model_io"]),
        "scheduler.run_application_s": per_round(busy["scheduler.run_application"]),
        "scheduler.dispatch_s": per_round(busy["scheduler.dispatch"]),
        "scheduler.sims_per_decision": _ratio(
            sum(sims_by_request[r] for r in fresh), len(fresh)),
        "scheduler.sims_per_history_hit": _ratio(
            sum(sims_by_request[r] for r in hits), len(hits)),
        "cli.simulate_s": per_round(busy["cli.simulate"]),
        "cli.train_s": per_round(busy["cli.train"]),
    }
    spans = [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
              "request": s[4], "phase": s[5], "round": s[6]}
             for s in tracer.spans]
    return {"metrics": metrics,
            "self_s": dict(sorted(self_s.items())),
            "spans": spans}
