"""Command-line front end.

Subcommands: gen-trace, simulate, sweep, train, predict, schedule, report.
Exit codes: 0 success, 1 configuration or input-file error (a message naming
the file and, for a parse error, the line), 2 runtime error, 3 a result
carried a constraint-violation flag: a sweep in which no point meets the
deadline, or any decision that `schedule` writes with `violation`, whether
dispatched or not. `schedule` writes `decisions.csv` only once every decision
has been made, so a run that fails adds nothing to it.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

from .config import ENCODING, ConfigError, read_input
from .configfile import ExperimentConfig, default_config, load_config
from .constraints import KINDS, NO_CONSTRAINT, Constraint
from .engine import (RunResult, exhaustive_sweep, pareto_flags, select_best,
                     simulate_run)
from .features import profile_application
from .predictor import (TrainingSet, check_model, load_model, save_model,
                        train_tree)
from .scheduler import HistoryTable, ScheduleDecision, Scheduler
from .trace import (BimodalGaps, SynthParams, UniformGaps, gen_synthetic,
                    load_trace, write_trace)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_FLAGGED = 3

RUN_COLUMNS = [
    "trace", "core", "freq_ghz", "instructions", "cycles", "wall_time_s",
    "cache_dynamic_j", "cache_leakage_j", "core_dynamic_j", "core_static_j",
    "total_energy_j", "edp_js", "read_hits", "write_hits", "read_misses",
    "write_misses", "expiration_misses", "early_writebacks", "writebacks",
    "evictions", "bus_read_requests", "bus_write_requests",
    "mem_busy_read_cycles", "mem_busy_write_cycles", "mem_idle_cycles",
    "mem_read_hits",
]

# The configured technology row that each baseline builds its data cache from.
BASELINE_TECHS = {"sram": "sram", "homog-400us": "stt_400us"}

DECISION_COLUMNS = [
    "trace", "app", "constraint", "core", "freq_ghz", "path", "ranking",
    "from_history", "profiling_instructions", "profiling_time_s",
    "profiling_energy_j", "prediction_time_s", "prediction_energy_j",
    "migrations", "migration_time_s", "migration_energy_j", "total_energy_j",
    "wall_time_s", "run_wall_time_s", "base_energy_j", "deadline_s",
    "deadline_met", "violation",
]


# A row fills each column from the field of the same name; only the columns
# named otherwise, and the flags written as 0/1, are mapped by hand.
def _run_row(run: RunResult, trace_path: str) -> dict:
    return {**vars(run.stats), **vars(run), "trace": trace_path,
            "core": run.core_id}


def _decision_row(d: ScheduleDecision) -> dict:
    return {**vars(d), "trace": d.app, "constraint": d.constraint_kind,
            "path": ">".join(f"{c}:{r}" for c, r in d.path),
            "ranking": " ".join(d.ranking), "total_energy_j": d.energy_j,
            "wall_time_s": d.time_s, "from_history": int(d.from_history),
            "deadline_met": int(d.deadline_met), "violation": int(d.violation)}


def _write_csv(path: Path, columns, rows, no_timestamp: bool,
               append: bool = False) -> None:
    """Write `rows`, mappings from column name to value, under a header row
    (and a timestamp comment unless `no_timestamp`), making the file's
    directory; `append` adds them to an existing file, whose header stays.
    `csv` writes a float as its `repr`, so every value round-trips."""
    path.parent.mkdir(parents=True, exist_ok=True)
    exists = append and path.exists()
    with open(path, "a" if append else "w", newline="", **ENCODING) as fh:
        writer = csv.DictWriter(fh, columns, extrasaction="ignore")
        if not exists:
            if not no_timestamp:
                fh.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
            writer.writeheader()
        writer.writerows(rows)


def _read_runs(fh) -> list[tuple[str, str, float, float]]:
    """(trace, core, energy, wall time) of each data row of a runs CSV, read
    by `read_input`; `#` lines are skipped."""
    lines = [(n, ln) for n, ln in enumerate(fh, 1) if not ln.startswith("#")]
    reader = csv.DictReader(ln for _, ln in lines)
    rows = []
    for row in reader:
        try:
            cells = (float(row.get("total_energy_j") or row["energy_j"]),
                     float(row["wall_time_s"]))
            if not all(0 <= cell < math.inf for cell in cells):
                raise ValueError(f"got {cells[0]} and {cells[1]}")
            rows.append((row["trace"], row.get("core", ""), *cells))
        except KeyError as exc:
            raise ConfigError(None, f"no {exc} column") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(lines[reader.line_num - 1][0], "energy and wall "
                              f"time must be numbers, finite and >= 0: {exc}"
                              ) from None
    if not rows:
        raise ConfigError(None, "no data rows")
    return rows


# The flags that more than one subcommand reads; each subcommand names its own.
_SHARED = {
    "--config": dict(type=Path, help="experiment config file"),
    "--out": dict(type=Path, default=Path("out"), help="output directory"),
    "--constraint": dict(choices=KINDS, default=NO_CONSTRAINT),
    "--no-timestamp": dict(action="store_true",
                           help="omit timestamp comments so reruns are "
                                "byte-identical"),
}


def _add_command(sub, name: str, func, help: str, *shared: str):
    parser = sub.add_parser(name, help=help)
    for flag in shared:
        parser.add_argument(flag, **_SHARED[flag])
    parser.set_defaults(func=func)
    return parser


def _trace(path):
    """The trace file at `path`, which must hold at least one access."""
    trace = load_trace(path)
    if not len(trace):
        raise ConfigError(None, "the trace holds no accesses", path)
    return trace


def _load_cfg(args) -> ExperimentConfig:
    return load_config(args.config) if args.config else default_config()


def _check_flags(*checks) -> None:
    """Reject the first (flag, value, ok, want) whose `ok` is false, before
    any work starts."""
    for flag, value, ok, want in checks:
        if not ok:
            raise ConfigError(None, f"{flag} must be {want}, got {value}")


def _check_deadline(args) -> None:
    _check_flags(("--deadline", args.deadline,
                  args.deadline is None or args.deadline > 0, "> 0"))


def _parse_gaps(spec: str):
    kind, _, rest = spec.partition(":")
    fields = rest.split(":") if rest else []
    try:
        if kind == "uniform" and len(fields) == 2:
            return UniformGaps(*map(int, fields))
        if kind == "bimodal" and len(fields) == 5:
            return BimodalGaps(*map(int, fields[:4]), float(fields[4]))
    except ValueError as exc:
        raise ConfigError(None, f"bad --gaps value {spec!r}: {exc}") from exc
    raise ConfigError(None, f"--gaps must be uniform:LO:HI or "
                            f"bimodal:SL:SH:LL:LH:W with integer bounds, "
                            f"got {spec!r}")


# -- subcommands --------------------------------------------------------------

def cmd_gen_trace(args) -> int:
    if args.seed is None:
        raise ConfigError(None, "synthetic generation requires an explicit --seed")
    _check_flags(
        ("--mem-fraction", args.mem_fraction, 0 < args.mem_fraction <= 1,
         "in (0, 1]"),
        ("--write-fraction", args.write_fraction, 0 <= args.write_fraction <= 1,
         "in [0, 1]"),
        ("--total", args.total, args.total >= 1, "at least 1"),
        ("--name", repr(args.name), args.name is None
         or (args.name and Path(args.name).name == args.name),
         "a non-empty file name without a directory"))
    params = SynthParams.for_rate(
        reuse_gaps=_parse_gaps(args.gaps),
        memory_op_fraction=args.mem_fraction,
        write_fraction=args.write_fraction,
        total_instructions=args.total,
        seed=args.seed,
    )
    try:
        trace = gen_synthetic(params, name=args.name)
    except ValueError as exc:  # an empty trace
        raise ConfigError(None, f"--total {args.total}: {exc}") from None
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"{trace.name}.trace"
    header = list(params.describe())
    if not args.no_timestamp:
        header.insert(0, f"generated {datetime.now(timezone.utc).isoformat()}")
    write_trace(trace, path, header=header)
    print(f"wrote {path} ({len(trace)} events, {trace.instructions} instructions)")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load_cfg(args)
    try:
        core = cfg.system.core(args.core)
    except KeyError:
        raise ConfigError(None, f"unknown core {args.core!r}; the system has "
                                f"{' '.join(cfg.system.labels())}") from None
    freq = args.freq if args.freq is not None else core.operating_freq_ghz
    _check_flags(("--freq", freq, core.dvfs.on_grid(freq),
                  f"on {core.core_id}'s DVFS grid ({core.dvfs.min_freq_ghz}-"
                  f"{core.freq_cap_ghz} GHz, step {core.dvfs.step_ghz})"))
    trace = _trace(args.trace)
    run = simulate_run(trace, core, freq, cfg.power)
    _write_csv(args.out / "simulate.csv", RUN_COLUMNS,
               [_run_row(run, str(args.trace))], args.no_timestamp, args.append)
    print(f"core={run.core_id} freq_ghz={run.freq_ghz} "
          f"wall_time_s={run.wall_time_s!r} total_energy_j={run.total_energy_j!r} "
          f"expiration_misses={run.stats.expiration_misses}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    _check_deadline(args)
    cfg = _load_cfg(args)
    trace = _trace(args.trace)
    sweep = exhaustive_sweep(trace, cfg.system, cfg.power,
                             Constraint(args.constraint),
                             deadline_s=args.deadline)
    _write_csv(args.out / "sweep.csv", RUN_COLUMNS + ["pareto", "best"],
               [{**_run_row(row, str(args.trace)), "pareto": int(pareto),
                 "best": int(row is sweep.best)}
                for row, pareto in zip(sweep.rows, pareto_flags(sweep.rows))],
               args.no_timestamp)
    print(f"best core={sweep.best.core_id} freq_ghz={sweep.best.freq_ghz} "
          f"energy_j={sweep.best.total_energy_j!r} "
          f"deadline_s={sweep.deadline_s!r} violation={sweep.violation}")
    return EXIT_FLAGGED if sweep.violation else EXIT_OK


def cmd_train(args) -> int:
    _check_flags(("--max-depth", args.max_depth, args.max_depth >= 1, "at least 1"),
                 ("--min-samples-leaf", args.min_samples_leaf,
                  args.min_samples_leaf >= 1, "at least 1"))
    cfg = _load_cfg(args)
    traces = [_trace(p) for p in args.traces]
    kinds = KINDS if args.constraint == "all" else (args.constraint,)
    args.out.mkdir(parents=True, exist_ok=True)
    labels = tuple(cfg.system.labels())
    # One sweep and one profiling run per trace serve every constraint.
    profiled = []
    for trace in traces:
        feats, _ = profile_application(trace, cfg.system, cfg.power,
                                       cfg.profiling_interval)
        sweep = exhaustive_sweep(trace, cfg.system, cfg.power,
                                 Constraint(NO_CONSTRAINT))
        profiled.append((feats, sweep.rows))
    for kind in kinds:
        constraint = Constraint(kind)
        rows = tuple(
            (feats, select_best(sweep_rows, cfg.system, constraint)[0].core_id)
            for feats, sweep_rows in profiled)
        data = TrainingSet(rows=rows, constraint=constraint, label_order=labels)
        model = train_tree(data, max_depth=args.max_depth,
                           min_samples_leaf=args.min_samples_leaf)
        path = args.out / f"model-{kind}.txt"
        save_model(model, constraint, path)
        print(f"wrote {path} (depth={model.depth()} leaves={model.leaf_count()})")
    return EXIT_OK


def cmd_predict(args) -> int:
    cfg = _load_cfg(args)
    model, constraint = load_model(args.model)
    check_model(model, cfg.system, args.model)
    trace = _trace(args.trace)
    feats, _ = profile_application(trace, cfg.system, cfg.power,
                                   cfg.profiling_interval)
    ranking = model.rank_labels(feats)
    print(f"constraint={constraint.kind} predicted={ranking[0]} "
          f"ranking={' '.join(ranking)}")
    return EXIT_OK


def cmd_schedule(args) -> int:
    _check_deadline(args)
    cfg = _load_cfg(args)
    path = args.models / f"model-{args.constraint}.txt"
    model, constraint = load_model(path)
    check_model(model, cfg.system, path)
    if constraint.kind != args.constraint:
        raise ConfigError(None, f"{path}: holds a {constraint.kind!r} model")
    sched = Scheduler(cfg.system, cfg.power, {constraint.kind: model},
                      history=HistoryTable(cfg.history_capacity),
                      profiling_interval=cfg.profiling_interval,
                      prediction_time_s=cfg.prediction_time_s,
                      migration_time_s=cfg.migration_time_s)
    slots = sched.slots(constraint)
    if args.dispatch and len(args.traces) > slots:
        raise ConfigError(None, f"--dispatch places one app per core: "
                                f"{len(args.traces)} traces exceed the "
                                f"{slots} cores that the model ranks")
    traces = [_trace(p) for p in args.traces]
    decisions = []
    if args.dispatch:
        assignment = sched.dispatch_workload(traces, constraint,
                                             deadline_s=args.deadline)
        decisions = [p.decision for p in assignment.placements]
        print(f"dispatched {len(decisions)} apps "
              f"total_energy_j={assignment.total_energy_j!r}")
        for p in assignment.placements:
            print(f"  {p.app}: cluster={p.cluster} core={p.core} "
                  f"freq_ghz={p.freq_ghz} energy_j={p.energy_j!r}")
    else:
        for trace in traces:
            d = sched.run_application(trace, constraint, deadline_s=args.deadline)
            decisions.append(d)
            print(f"{d.app}: core={d.core} freq_ghz={d.freq_ghz} "
                  f"energy_j={d.energy_j!r} deadline_met={d.deadline_met} "
                  f"path={'>'.join(f'{c}:{r}' for c, r in d.path)}")
    _write_csv(args.out / "decisions.csv", DECISION_COLUMNS,
               map(_decision_row, decisions), args.no_timestamp, append=True)
    return EXIT_FLAGGED if any(d.violation for d in decisions) else EXIT_OK


def cmd_report(args) -> int:
    cfg = _load_cfg(args)
    rows = read_input(args.runs, _read_runs, newline="")
    baseline = {}  # trace path -> (energy, wall time) on the baseline core
    if args.baseline != "self":
        # Every trace is read and checked before any run or output.
        traces = {path: _trace(path) for path, *_ in rows}
        # The configured base core, its data cache built from the baseline's
        # technology row as the config sets it.
        core = replace(cfg.system.core(cfg.system.base_core),
                       data_tech=cfg.technologies[BASELINE_TECHS[args.baseline]])
        for path, trace in traces.items():
            base = simulate_run(trace, core, core.operating_freq_ghz,
                                cfg.power)
            baseline[path] = base.total_energy_j, base.wall_time_s
    columns = ["trace", "core", "energy_j", "baseline_energy_j", "energy_ratio",
               "wall_time_s", "baseline_wall_time_s", "latency_ratio",
               "exceeds_baseline"]
    table = []
    for trace_path, core_label, energy, wall in rows:
        base_e, base_t = baseline.get(trace_path, (energy, wall))
        ratio = energy / base_e if base_e else math.inf
        table.append(dict(zip(columns, [
            trace_path, core_label, energy, base_e, ratio, wall, base_t,
            wall / base_t if base_t else math.inf, int(ratio > 1.0)])))
    _write_csv(args.out / "report.csv", columns, table, args.no_timestamp)
    print(f"wrote {args.out / 'report.csv'} ({len(rows)} rows, "
          f"baseline={args.baseline})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sttsim",
        description="Relaxed-retention STT-RAM multicore cache simulator "
                    "and core scheduler")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "gen-trace", cmd_gen_trace,
                     "generate a synthetic trace", "--out", "--no-timestamp")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (required for synthetic generation)")
    p.add_argument("--gaps", default="uniform:2000:6000",
                   help="reuse-gap distribution: uniform:LO:HI or "
                        "bimodal:SL:SH:LL:LH:W (instructions)")
    p.add_argument("--mem-fraction", type=float, default=0.05)
    p.add_argument("--write-fraction", type=float, default=0.3)
    p.add_argument("--total", type=int, default=1_000_000)
    p.add_argument("--name", default=None)

    p = _add_command(sub, "simulate", cmd_simulate,
                     "one trace x one core x one frequency",
                     "--config", "--out", "--no-timestamp")
    p.add_argument("--trace", type=Path, required=True)
    p.add_argument("--core", required=True)
    p.add_argument("--freq", type=float, default=None)
    p.add_argument("--append", action="store_true",
                   help="append to an existing simulate.csv")

    runs = ("--config", "--out", "--constraint", "--no-timestamp")
    p = _add_command(sub, "sweep", cmd_sweep,
                     "exhaustive (core, frequency) table", *runs)
    p.add_argument("--trace", type=Path, required=True)
    p.add_argument("--deadline", type=float, default=None,
                   help="explicit deadline in seconds")

    p = _add_command(sub, "train", cmd_train, "label traces via the oracle "
                     "and train per-constraint models", *runs)
    p.add_argument("--traces", type=Path, nargs="+", required=True)
    p.add_argument("--all-constraints", dest="constraint", action="store_const",
                   const="all", help="train every constraint's model")
    p.add_argument("--max-depth", type=int, default=5)
    p.add_argument("--min-samples-leaf", type=int, default=1)

    p = _add_command(sub, "predict", cmd_predict,
                     "profile a trace and predict its core", "--config")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--trace", type=Path, required=True)

    p = _add_command(sub, "schedule", cmd_schedule, "run the feedback loop "
                     "or a multiprogrammed dispatch", *runs)
    p.add_argument("--models", type=Path, required=True,
                   help="directory holding model-<constraint>.txt files")
    p.add_argument("--traces", type=Path, nargs="+", required=True)
    p.add_argument("--deadline", type=float, default=None)
    p.add_argument("--dispatch", action="store_true",
                   help="place all traces together, one per core")

    p = _add_command(sub, "report", cmd_report,
                     "normalize run CSVs against a baseline",
                     "--config", "--out", "--no-timestamp")
    p.add_argument("--runs", type=Path, required=True,
                   help="CSV produced by simulate/sweep/schedule")
    p.add_argument("--baseline", choices=(*BASELINE_TECHS, "self"),
                   default="homog-400us")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "out" in args:  # `mkdir` makes it only below a directory
            existing = next(p for p in (args.out, *args.out.parents) if p.exists())
            _check_flags(("--out", args.out, existing.is_dir(),
                          "a directory or a new path under one"))
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
