import argparse
import csv
import hashlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from sttsim import (ConfigError, Constraint, CorePredictor, PowerModel,
                    Scheduler, TrainingSet, cli, dump_tree, engine, features,
                    label_oracle, load_config, load_trace, profile_application,
                    save_model, scheduler, train_tree)
from sttsim.cli import build_parser, main
from sttsim.constraints import KINDS

FIG_TRACE = "0 R 0xa00\n5000 R 0xa00\n7000 R 0xa00\n"


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))


@pytest.fixture
def fig_trace(tmp_path):
    path = tmp_path / "fig.trace"
    path.write_text(FIG_TRACE)
    return path


class TestGenTrace:
    def test_writes_parseable_deterministic_file(self, tmp_path, capsys):
        args = ["gen-trace", "--seed", 9, "--total", 20000,
                "--gaps", "uniform:400:700", "--mem-fraction", "0.1",
                "--write-fraction", "0.25", "--out", tmp_path,
                "--name", "t", "--no-timestamp"]
        assert run_cli(*args) == 0
        first = (tmp_path / "t.trace").read_bytes()
        assert run_cli(*args) == 0
        assert (tmp_path / "t.trace").read_bytes() == first
        trace = load_trace(tmp_path / "t.trace")
        assert trace.instructions == 20000

    def test_bimodal_spec(self, tmp_path):
        assert run_cli("gen-trace", "--seed", 1, "--total", 9000,
                       "--gaps", "bimodal:100:200:800:1200:0.3",
                       "--out", tmp_path, "--name", "b") == 0
        assert len(load_trace(tmp_path / "b.trace")) > 0

    def test_bad_gaps_spec_is_config_error(self, tmp_path, capsys):
        assert run_cli("gen-trace", "--seed", 1, "--gaps", "zipf:1:2",
                       "--out", tmp_path) == 1
        assert "gaps" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--gaps", "uniform:1:inf"),
        ("--gaps", "uniform:10.7:20.2"),
        ("--gaps", "bimodal:10:20:30.5:40:0.2"),
        ("--mem-fraction", "0"),
        ("--write-fraction", "2"),
        ("--total", "0"),
        ("--total", "5"),  # ends before the first access: an empty trace
    ])
    def test_bad_argument_is_config_error(self, tmp_path, capsys, flag, value):
        assert run_cli("gen-trace", "--seed", 1, flag, value,
                       "--out", tmp_path) == 1
        assert flag in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_seed_is_mandatory(self, tmp_path, capsys):
        assert run_cli("gen-trace", "--out", tmp_path) == 1
        assert "--seed" in capsys.readouterr().err


class TestBadArguments:
    """Flag errors exit 1, name the flag and stop before any work: the trace,
    model and output paths below do not exist and are never reached."""

    @pytest.mark.parametrize("argv", [
        ("simulate", "--core", "core1", "--freq", "1.1"),
        ("simulate", "--core", "core1", "--freq", "2.0"),  # above the cap
        ("simulate", "--core", "core1", "--freq", "nan"),
        ("train", "--max-depth", "0"),
        ("train", "--min-samples-leaf", "0"),
        ("sweep", "--deadline", "nan"),
        ("sweep", "--deadline", "0"),
        ("schedule", "--deadline", "nan"),
        ("schedule", "--deadline", "-0.001"),
    ])
    def test_bad_argument_is_config_error(self, tmp_path, capsys, argv):
        missing = tmp_path / "missing"
        inputs = {"simulate": ("--trace", missing),
                  "sweep": ("--trace", missing),
                  "train": ("--traces", missing),
                  "schedule": ("--traces", missing, "--models", missing)}
        out = tmp_path / "out"
        assert run_cli(*argv, *inputs[argv[0]], "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {argv[-2]} must be ")
        assert argv[-1] in err
        assert not out.exists()


README = Path(__file__).resolve().parent.parent / "README.md"


def _subparsers():
    parser = build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


# The flags each subcommand no longer takes because its result does not
# depend on them, with the arguments it requires.
REMOVED = {
    "gen-trace": (("--config", "--constraint", "--baseline"), ("--seed", "1")),
    "simulate": (("--seed", "--constraint", "--baseline"),
                 ("--trace", "t", "--core", "core1")),
    "predict": (("--seed", "--out", "--constraint", "--baseline",
                 "--no-timestamp"), ("--model", "m", "--trace", "t")),
    "sweep": (("--seed", "--baseline"), ("--trace", "t")),
    "train": (("--seed", "--baseline"), ("--traces", "t")),
    "schedule": (("--seed", "--baseline"), ("--models", "m", "--traces", "t")),
    "report": (("--seed", "--constraint"), ("--runs", "r")),
}
VALUES = {"--config": "x", "--seed": "1", "--out": "x",
          "--constraint": "slack10", "--baseline": "sram",
          "--no-timestamp": None}


class TestFlags:
    def test_readme_lists_exactly_the_parsed_flags(self):
        """Each row of the README's flag table names the option strings its
        subcommand accepts: the backticked flags of its second column."""
        documented = {}
        for row in README.read_text().splitlines():
            cells = row.split("|")
            if len(cells) == 4 and re.fullmatch(r"`[\w-]+`", cells[1].strip()):
                documented[cells[1].strip(" `")] = set(
                    re.findall(r"`(--[\w-]+)", cells[2]))
        parsed = {name: {s for a in p._actions for s in a.option_strings}
                  - {"-h", "--help"} for name, p in _subparsers().items()}
        assert documented == parsed

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, (flags, _) in REMOVED.items()
        for flag in flags])
    def test_flag_the_command_does_not_read_is_usage_error(
            self, tmp_path, monkeypatch, capsys, command, flag):
        monkeypatch.chdir(tmp_path)  # holds the default `out` directory
        value = () if VALUES[flag] is None else (VALUES[flag],)
        with pytest.raises(SystemExit) as exc:
            run_cli(command, *REMOVED[command][1], flag, *value)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestSimulate:
    def test_expiration_miss_reported(self, tmp_path, fig_trace, capsys):
        # Fill, hit, then a reference after the monitor lifetime elapses.
        code = run_cli("simulate", "--trace", fig_trace, "--core", "core1",
                       "--freq", "0.8", "--out", tmp_path, "--no-timestamp")
        assert code == 0
        assert "expiration_misses=1" in capsys.readouterr().out
        rows = read_rows(tmp_path / "simulate.csv")
        assert rows[0]["expiration_misses"] == "1"
        assert rows[0]["core"] == "core1"

    def test_missing_trace_is_config_error(self, tmp_path):
        assert run_cli("simulate", "--trace", tmp_path / "nope.trace",
                       "--core", "core1", "--out", tmp_path) == 1

    @pytest.mark.parametrize("line", ["\u00b2 W 0x20", "1 R 0x10000000000000000",
                                      "1 Q 0x20"])
    def test_malformed_trace_names_file_and_line(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.trace"
        bad.write_text(f"0 R 0x10\n{line}\n")
        assert run_cli("simulate", "--trace", bad, "--core", "core1",
                       "--out", tmp_path) == 1
        assert f"{bad}: line 2: " in capsys.readouterr().err

    def test_unknown_core_is_config_error(self, tmp_path, fig_trace, capsys):
        assert run_cli("simulate", "--trace", fig_trace, "--core", "core9",
                       "--out", tmp_path) == 1
        err = capsys.readouterr().err
        assert "config error: unknown core 'core9'" in err and "core4" in err

    def test_internal_key_error_is_runtime_error(self, tmp_path, fig_trace,
                                                 capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("internal")
        monkeypatch.setattr(cli, "simulate_run", broken)
        assert run_cli("simulate", "--trace", fig_trace, "--core", "core1",
                       "--out", tmp_path) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestSweep:
    def test_row_count_and_reruns_identical(self, tmp_path, fig_trace):
        single = tmp_path / "one.cfg"
        single.write_text("[core.1]\ndata_tech = stt_75us\n"
                          "max_freq_ghz = 2.0\n")
        args = ["sweep", "--trace", fig_trace, "--config", single,
                "--out", tmp_path, "--no-timestamp"]
        assert run_cli(*args) == 0
        rows = read_rows(tmp_path / "sweep.csv")
        assert len(rows) == 7  # one core x its admissible grid
        assert {r["core"] for r in rows} == {"core1"}
        assert sum(int(r["best"]) for r in rows) == 1
        first = (tmp_path / "sweep.csv").read_bytes()
        assert run_cli(*args) == 0
        assert (tmp_path / "sweep.csv").read_bytes() == first

    def test_impossible_deadline_exits_flagged(self, tmp_path, fig_trace):
        code = run_cli("sweep", "--trace", fig_trace, "--constraint", "slack10",
                       "--deadline", "1e-12", "--out", tmp_path)
        assert code == 3

    def test_unknown_config_key_line_numbered(self, tmp_path, fig_trace, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[dvfs]\nstep_ghz = 0.2\nwat = 1\n")
        code = run_cli("sweep", "--trace", fig_trace, "--config", bad,
                       "--out", tmp_path)
        assert code == 1
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("setting, where", [
        ("counter_states_k = 0", "line 2: [core.core1]: "),
        ("counter_states_k = 1", "line 2: [core.core1]: "),
        ("base_cpi = -1", "line 2: [core.core1]: "),
        ("miss_penalty_ns = -5", "line 2: [core.core1]: "),
        ("operating_freq_ghz = 1.1", "line 2: [core.core1]: "),
        ("write_cycle_budget = 1", "line 4: unknown key ")])
    def test_bad_config_names_file_and_line(self, tmp_path, fig_trace, capsys,
                                            setting, where):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"# one core\n[core.1]\ndata_tech = stt_10us\n{setting}\n")
        code = run_cli("simulate", "--trace", fig_trace, "--core", "core1",
                       "--config", bad, "--out", tmp_path)
        assert code == 1
        assert capsys.readouterr().err.startswith(f"config error: {bad}: {where}")


def _write_workload(tmp_path, seed, name, gaps="uniform:300:500",
                    mem="0.05", wf="0.3", total=40_000):
    out = run_cli("gen-trace", "--seed", seed, "--total", total,
                  "--gaps", gaps, "--mem-fraction", mem,
                  "--write-fraction", wf, "--out", tmp_path,
                  "--name", name, "--no-timestamp")
    assert out == 0
    return tmp_path / f"{name}.trace"


@pytest.fixture(scope="module")
def small_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "small.cfg"
    path.write_text("[system]\nprofiling_interval = 8000\n")
    return path


@pytest.fixture(scope="module")
def trained_models(tmp_path_factory, small_config):
    tmp_path = tmp_path_factory.mktemp("train")
    traces = [
        _write_workload(tmp_path, 21, "hot", "uniform:300:500", "0.2", "0.8"),
        _write_workload(tmp_path, 22, "hot2", "uniform:300:500", "0.2", "0.8"),
        _write_workload(tmp_path, 23, "cold", "uniform:9000:14000", "0.01", "0.5",
                        total=200_000),
        _write_workload(tmp_path, 24, "cold2", "uniform:9000:14000", "0.01", "0.5",
                        total=200_000),
    ]
    out = tmp_path / "models"
    code = run_cli("train", "--traces", *traces, "--all-constraints",
                   "--config", small_config, "--out", out, "--no-timestamp")
    assert code == 0
    return out, traces, small_config


class TestTrainPredictSchedule:
    def test_models_written_and_loadable(self, trained_models):
        out, _, _ = trained_models
        for kind in ("none", "slack20", "slack10", "best-perf"):
            text = (out / f"model-{kind}.txt").read_text()
            assert text.startswith("sttsim-tree v1")
            assert f"constraint {kind}" in text

    def test_train_sweeps_each_trace_once(self, trained_models, tmp_path,
                                          monkeypatch):
        _, traces, cfg_path = trained_models
        traces = [traces[0], traces[2]]
        calls = []
        original = engine.simulate_run

        def counted(*args, **kwargs):
            calls.append(args[:3])
            return original(*args, **kwargs)

        for module in (engine, features, cli, scheduler):
            monkeypatch.setattr(module, "simulate_run", counted)
        out = tmp_path / "models"
        assert run_cli("train", "--traces", *traces, "--all-constraints",
                       "--config", cfg_path, "--out", out,
                       "--no-timestamp") == 0
        # One profiling window and one 22-point sweep per trace.
        assert len(calls) == 2 + 2 * 22
        monkeypatch.undo()

        # The same models as labelling each constraint with its own sweep.
        cfg = load_config(cfg_path)
        loaded = [load_trace(p) for p in traces]
        feats = [profile_application(t, cfg.system, cfg.power,
                                     cfg.profiling_interval)[0] for t in loaded]
        for kind in KINDS:
            constraint = Constraint(kind)
            rows = tuple((f, label_oracle(t, cfg.system, cfg.power, constraint))
                         for f, t in zip(feats, loaded))
            data = TrainingSet(
                rows=rows, constraint=constraint,
                label_order=tuple(cfg.system.labels()))
            assert ((out / f"model-{kind}.txt").read_text()
                    == dump_tree(train_tree(data), constraint))

    @pytest.mark.parametrize("old, new, expect", [
        ("features ", "# ", "'features'"),
        ("node split l1d_hits", "node split bogus", "line 6"),
        ("core4", "core9", "core9"),
    ])
    def test_bad_model_file_is_config_error(self, trained_models, tmp_path,
                                            capsys, old, new, expect):
        models, traces, cfg = trained_models
        text = (models / "model-none.txt").read_text()
        assert old in text
        bad = tmp_path / "model-none.txt"
        bad.write_text(text.replace(old, new, 1))
        assert run_cli("schedule", "--models", tmp_path, "--traces", traces[0],
                       "--config", cfg, "--out", tmp_path) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and expect in err
        assert run_cli("predict", "--model", bad, "--trace", traces[0],
                       "--config", cfg) == 1
        assert str(bad) in capsys.readouterr().err

    def test_schedule_without_the_constraints_model_is_config_error(
            self, trained_models, tmp_path, capsys):
        models, _, cfg = trained_models
        only_none = tmp_path / "models"
        only_none.mkdir()
        (only_none / "model-none.txt").write_text(
            (models / "model-none.txt").read_text())
        out = tmp_path / "out"
        # The trace paths do not exist: the model is checked before any trace.
        assert run_cli("schedule", "--models", only_none, "--traces",
                       tmp_path / "missing.trace", "--constraint", "slack10",
                       "--config", cfg, "--out", out) == 1
        err = capsys.readouterr().err
        assert f"config error: {only_none / 'model-slack10.txt'}" in err
        assert not out.exists()

    def test_schedule_reads_only_the_constraints_model(self, trained_models,
                                                       tmp_path):
        models, traces, cfg = trained_models
        mixed = tmp_path / "models"
        mixed.mkdir()
        (mixed / "model-none.txt").write_text(
            (models / "model-none.txt").read_text())
        (mixed / "model-slack10.txt").write_text("not a model\n")
        assert run_cli("schedule", "--models", mixed, "--traces", traces[0],
                       "--constraint", "none", "--config", cfg,
                       "--out", tmp_path / "out", "--no-timestamp") == 0
        assert len(read_rows(tmp_path / "out" / "decisions.csv")) == 1

    def test_deep_model_file_is_config_error(self, trained_models, tmp_path,
                                             capsys):
        models, traces, cfg = trained_models
        text = (models / "model-none.txt").read_text()
        head = text[:text.index("node ")]
        feature = head.split("features ")[1].split()[0]
        split = f"node split {feature} 0.5"
        bad = tmp_path / "model-none.txt"
        bad.write_text(head + f"{split}\nnode leaf core1 core1=1\n" * 3000
                       + "node leaf core2 core2=1\n")
        assert run_cli("predict", "--model", bad, "--trace", traces[0],
                       "--config", cfg) == 1
        err = capsys.readouterr().err
        assert f"{bad}: line 16: split deeper than max_depth=5" in err

    def test_predict_prints_label_and_ranking(self, trained_models, capsys):
        out, traces, cfg = trained_models
        code = run_cli("predict", "--model", out / "model-none.txt",
                       "--trace", traces[0], "--config", cfg)
        assert code == 0
        printed = capsys.readouterr().out
        assert "predicted=core" in printed
        assert "ranking=" in printed
        assert len(printed.split("ranking=")[1].split()) == 4

    @pytest.mark.parametrize("interval", [8_000, 100_000])
    def test_predict_and_schedule_rank_alike(self, trained_models, tmp_path,
                                             capsys, interval):
        # `predict` profiles through `features.profile_application` and
        # `schedule` through the scheduler's window. A window of 100,000
        # instructions covers each 40,000-instruction hot trace whole.
        models, traces, _ = trained_models
        cfg = tmp_path / "interval.cfg"
        cfg.write_text(f"[system]\nprofiling_interval = {interval}\n")
        assert {load_trace(t).instructions for t in traces} == {40_000, 200_000}
        for kind in KINDS:
            predicted = []
            for trace in traces:
                assert run_cli("predict", "--model", models / f"model-{kind}.txt",
                               "--trace", trace, "--config", cfg) == 0
                printed = capsys.readouterr().out
                predicted.append(printed.split("ranking=")[1].split())
            out = tmp_path / kind
            assert run_cli("schedule", "--models", models, "--traces", *traces,
                           "--constraint", kind, "--config", cfg, "--out", out,
                           "--no-timestamp") in (0, 3)
            rows = read_rows(out / "decisions.csv")
            assert [row["ranking"].split() for row in rows] == predicted

    def test_schedule_writes_decision_log(self, trained_models, tmp_path, capsys):
        models, traces, cfg = trained_models
        code = run_cli("schedule", "--models", models, "--traces", *traces[:2],
                       "--config", cfg, "--out", tmp_path, "--no-timestamp")
        assert code == 0
        rows = read_rows(tmp_path / "decisions.csv")
        assert len(rows) == 2
        assert rows[0]["constraint"] == "none"
        assert rows[0]["path"].startswith("core1:profile")
        # append-only: a second invocation adds rows
        assert run_cli("schedule", "--models", models, "--traces", traces[2],
                       "--config", cfg, "--out", tmp_path, "--no-timestamp") == 0
        assert len(read_rows(tmp_path / "decisions.csv")) == 3

    def test_dispatch_places_all_apps(self, trained_models, tmp_path, capsys):
        models, traces, cfg = trained_models
        code = run_cli("schedule", "--models", models, "--traces", *traces,
                       "--config", cfg, "--out", tmp_path, "--no-timestamp",
                       "--dispatch")
        assert code == 0
        rows = read_rows(tmp_path / "decisions.csv")
        assert len(rows) == 4
        assert "dispatched 4 apps" in capsys.readouterr().out

    @pytest.mark.parametrize("dispatch", [(), ("--dispatch",)])
    def test_a_violation_exits_flagged_dispatched_or_not(
            self, trained_models, tmp_path, dispatch):
        # No constraint, but a deadline no core meets: every decision
        # carries `violation`, and both routes exit 3.
        models, traces, cfg = trained_models
        code = run_cli("schedule", "--models", models, "--traces", *traces[:2],
                       "--constraint", "none", "--deadline", "1e-9",
                       "--config", cfg, "--out", tmp_path, "--no-timestamp",
                       *dispatch)
        rows = read_rows(tmp_path / "decisions.csv")
        assert [row["violation"] for row in rows] == ["1", "1"]
        assert code == 3

    def test_a_failed_schedule_writes_no_decisions(self, trained_models,
                                                   tmp_path, monkeypatch):
        models, traces, cfg = trained_models

        def broken(*args, **kwargs):
            raise RuntimeError("decision failed")
        monkeypatch.setattr(scheduler.Scheduler, "run_application", broken)
        code = run_cli("schedule", "--models", models, "--traces", traces[0],
                       "--config", cfg, "--out", tmp_path, "--no-timestamp")
        assert code == 2
        assert not (tmp_path / "decisions.csv").exists()

    def test_dispatch_over_capacity_is_config_error(self, trained_models,
                                                    tmp_path, monkeypatch,
                                                    capsys):
        # Five traces for the four cores: an input error naming both counts,
        # before any trace is read or decisions.csv opened.
        models, traces, cfg = trained_models
        read = []
        monkeypatch.setattr(cli, "load_trace", read.append)
        code = run_cli("schedule", "--models", models, "--traces", *traces,
                       traces[0], "--config", cfg, "--out", tmp_path / "out",
                       "--no-timestamp", "--dispatch")
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("config error: ")
        assert "5 traces" in err and "4 cores" in err
        assert read == [] and not (tmp_path / "out").exists()

    def test_dispatch_past_the_cores_a_model_ranks_is_config_error(
            self, trained_models, tmp_path, monkeypatch, capsys):
        # A model that ranks only core3 places one app per cluster: two
        # traces on the one-cluster system are an input error naming both
        # counts, before any trace is read or decisions.csv opened.
        _, traces, cfg = trained_models
        model = CorePredictor(feature_names=("l1d_hits",),
                              label_order=("core3",)).fit([[0.0]], ["core3"])
        models = tmp_path / "models"
        models.mkdir()
        save_model(model, Constraint("none"), models / "model-none.txt")
        assert "labels core3\n" in (models / "model-none.txt").read_text()
        read = []
        monkeypatch.setattr(cli, "load_trace", read.append)
        code = run_cli("schedule", "--models", models, "--traces", *traces[:2],
                       "--config", cfg, "--out", tmp_path / "out",
                       "--no-timestamp", "--dispatch")
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("config error: ")
        assert "2 traces" in err and "1 cores" in err
        assert read == [] and not (tmp_path / "out").exists()

    def test_report_missing_column_is_config_error(self, tmp_path, capsys):
        runs = tmp_path / "runs.csv"
        runs.write_text("trace,core,total_energy_j\nx.trace,core1,1.0\n")
        assert run_cli("report", "--runs", runs, "--out", tmp_path) == 1
        assert f"{runs}: no 'wall_time_s' column" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["abc", ""])
    def test_report_non_numeric_cell_names_file_and_line(self, tmp_path,
                                                         capsys, cell):
        runs = tmp_path / "runs.csv"
        runs.write_text("# generated\ntrace,core,total_energy_j,wall_time_s\n"
                        f"x.trace,core1,1.0,2.0\nx.trace,core1,1.0,{cell}\n")
        out = tmp_path / "out"
        assert run_cli("report", "--runs", runs, "--baseline", "self",
                       "--out", out) == 1
        assert capsys.readouterr().err.startswith(
            f"config error: {runs}: line 4: energy and wall time must be numbers")
        assert not out.exists()

    @pytest.mark.parametrize("energy, wall", [
        ("nan", "2.0"), ("1.0", "-inf"), ("inf", "2.0"), ("-1.0", "2.0")])
    def test_report_non_finite_or_negative_cell_names_file_and_line(
            self, tmp_path, capsys, energy, wall):
        runs = tmp_path / "runs.csv"
        runs.write_text("trace,core,total_energy_j,wall_time_s\n"
                        f"x.trace,core1,1.0,2.0\nx.trace,core1,{energy},{wall}\n")
        out = tmp_path / "out"
        assert run_cli("report", "--runs", runs, "--baseline", "self",
                       "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {runs}: line 3: energy and wall "
                              "time must be numbers, finite and >= 0")
        assert not out.exists()

    def test_report_self_baseline_is_unity(self, trained_models, tmp_path):
        models, traces, cfg = trained_models
        assert run_cli("schedule", "--models", models, "--traces", *traces[:2],
                       "--config", cfg, "--out", tmp_path, "--no-timestamp") == 0
        code = run_cli("report", "--runs", tmp_path / "decisions.csv",
                       "--baseline", "self", "--out", tmp_path,
                       "--no-timestamp")
        assert code == 0
        for row in read_rows(tmp_path / "report.csv"):
            assert float(row["energy_ratio"]) == 1.0
            assert row["exceeds_baseline"] == "0"

    def test_report_against_homogeneous_baseline(self, trained_models, tmp_path):
        models, traces, cfg = trained_models
        assert run_cli("schedule", "--models", models, "--traces", traces[0],
                       "--config", cfg, "--out", tmp_path, "--no-timestamp") == 0
        code = run_cli("report", "--runs", tmp_path / "decisions.csv",
                       "--baseline", "homog-400us", "--out", tmp_path,
                       "--no-timestamp")
        assert code == 0
        rows = read_rows(tmp_path / "report.csv")
        assert float(rows[0]["baseline_energy_j"]) > 0
        assert rows[0]["exceeds_baseline"] in ("0", "1")

    def test_report_baseline_takes_the_configured_base_core(self, tmp_path):
        # With a 4 KiB cache, the homog-400us baseline is the base core,
        # core3, built from stt_400us: core4 at its 2.0 GHz cap, with the
        # configured cache, is its own baseline.
        cfg = tmp_path / "small.cfg"
        cfg.write_text("[cache]\ncapacity_bytes = 4096\n")
        assert run_cli("gen-trace", "--seed", 5, "--total", 40000,
                       "--gaps", "uniform:1000:3000", "--mem-fraction", "0.1",
                       "--write-fraction", "0.3", "--name", "t",
                       "--out", tmp_path) == 0
        assert run_cli("simulate", "--trace", tmp_path / "t.trace", "--core",
                       "core4", "--config", cfg, "--out", tmp_path) == 0
        assert run_cli("report", "--runs", tmp_path / "simulate.csv",
                       "--config", cfg, "--out", tmp_path) == 0
        [row] = read_rows(tmp_path / "report.csv")
        assert row["baseline_energy_j"] == row["energy_j"]
        assert float(row["energy_ratio"]) == float(row["latency_ratio"]) == 1.0
        assert row["exceeds_baseline"] == "0"

    def test_report_baseline_reads_the_configured_technology(self, tmp_path):
        # The base core is core3; the homog-400us baseline builds it from
        # the configured stt_400us row, so it is core4 at its 2.0 GHz cap.
        cfg = tmp_path / "tech.cfg"
        cfg.write_text("[tech.stt_400us]\nwrite_latency_ns = 0.9\n")
        assert run_cli("gen-trace", "--seed", 5, "--total", 40000,
                       "--gaps", "uniform:1000:3000", "--mem-fraction", "0.1",
                       "--write-fraction", "0.3", "--name", "t",
                       "--out", tmp_path) == 0
        assert run_cli("simulate", "--trace", tmp_path / "t.trace", "--core",
                       "core4", "--config", cfg, "--out", tmp_path) == 0
        assert run_cli("report", "--runs", tmp_path / "simulate.csv",
                       "--config", cfg, "--out", tmp_path) == 0
        [row] = read_rows(tmp_path / "report.csv")
        assert float(row["energy_ratio"]) == 1.0


# SHA-256 of each CSV that `test_csv_bytes_match_the_pinned_digests`
# writes, recorded before the subcommands shared one CSV writer; a change to
# one byte of any row or header moves it.
GOLDEN_CSVS = {
    "sim/simulate.csv":
        "32fc71f123d318b0d74015905a3d2a639e92bf2280dea2374ff4fe7f08aa5a9a",
    "sweep/sweep.csv":
        "b9b86b4f8b8b341554bf99870acf834ca30d3809192f8e3790193a146f289251",
    "fresh/decisions.csv":
        "415461394975dece1705c7b7369f736713d972c2e2b1a8117e7f887b408149ba",
    "dispatch/decisions.csv":
        "40226b8d04538efdea74c4ef045df6dd4f9649588b1314cd302e5437e898b1ad",
    "sram/report.csv":
        "b6f2bbbd3b81ac50d056cf64853a3071cf7e0f834cefd60d37d480f2286f1147",
    "homog-400us/report.csv":
        "88d65385158cea74048cdce90e09599797016222543a84b3d8da745fbc4fbed3",
    "self/report.csv":
        "c9da103278b68cd0d72ab10703e16c15960dcc46f2cfc5dde767a2d8d2425958",
}


def test_csv_bytes_match_the_pinned_digests(trained_models, tmp_path,
                                            monkeypatch):
    """Every CSV writer, run from the output directory on relative paths and
    without timestamps, writes the pinned bytes: a simulated row and an
    appended one, a sweep, fresh decisions with a history hit, a dispatch,
    and a report under each baseline."""
    models, traces, cfg = trained_models
    monkeypatch.chdir(tmp_path)
    for trace in (traces[0], traces[2]):
        shutil.copy(trace, trace.name)
    hot, cold = "hot.trace", "cold.trace"
    runs = [
        ("simulate", "--trace", hot, "--core", "core1", "--out", "sim"),
        ("simulate", "--trace", cold, "--core", "core4", "--freq", "1.2",
         "--out", "sim", "--append"),
        ("sweep", "--trace", hot, "--constraint", "slack10", "--out", "sweep"),
        ("schedule", "--models", models, "--traces", hot, cold, hot,
         "--constraint", "slack20", "--out", "fresh"),
        ("schedule", "--models", models, "--traces", hot, cold,
         "--constraint", "slack20", "--dispatch", "--out", "dispatch"),
        *(("report", "--runs", "fresh/decisions.csv", "--baseline", baseline,
           "--out", baseline) for baseline in ("sram", "homog-400us", "self")),
    ]
    codes = [run_cli(*argv, "--config", cfg, "--no-timestamp") for argv in runs]
    assert codes == [0] * len(runs)
    digests = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
               for name in GOLDEN_CSVS}
    assert digests == GOLDEN_CSVS


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, flag", [
    ("simulate", "--freq"), ("sweep", "--deadline"), ("schedule", "--deadline"),
    ("gen-trace", "--mem-fraction"), ("gen-trace", "--write-fraction")])
def test_no_float_input_exits_2(trained_models, fig_trace, tmp_path, capsys,
                                command, flag, value):
    """A non-finite value either runs (an infinite deadline) or is an input
    error that names its flag; none of them is a runtime error. The value is
    passed as `--flag=value`, the form argparse takes for `-inf`."""
    models, traces, cfg = trained_models
    inputs = {"simulate": ("--trace", fig_trace, "--core", "core1"),
              "sweep": ("--trace", fig_trace),
              "schedule": ("--models", models, "--traces", traces[0],
                           "--config", cfg),
              "gen-trace": ("--seed", 1, "--total", 20000)}
    code = run_cli(command, *inputs[command], f"{flag}={value}", "--out", tmp_path)
    assert code in (0, 1, 3)
    if code == 1:
        assert flag in capsys.readouterr().err


class TestEntryPoint:
    def test_console_script_runs(self):
        # The child imports the same package, installed or not.
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "sttsim.cli", "--help"],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        assert "gen-trace" in proc.stdout


def _command(name, given):
    """`name`'s arguments over the inputs in `given`."""
    args = {
        "simulate": ("--trace", given["trace"], "--core", "core1"),
        "sweep": ("--trace", given["trace"]),
        "train": ("--traces", given["trace"]),
        "predict": ("--model", given["model"], "--trace", given["trace"]),
        "schedule": ("--models", given["models"], "--traces", given["trace"]),
        "report": ("--runs", given["runs"], "--baseline", given["baseline"]),
    }[name]
    out = () if name == "predict" else ("--out", given["out"])
    return (name, *args, "--config", given["config"], *out)


class TestInputFiles:
    """A trace file without accesses, and an input path that is a directory
    (or that passes through a file), exit 1 naming the path, before any
    work or output."""

    @pytest.fixture
    def given(self, trained_models, tmp_path):
        models, traces, cfg = trained_models
        empty = tmp_path / "empty.trace"
        empty.write_text("# a header and no accesses\n\n")
        return dict(trace=traces[0], config=cfg, models=models,
                    model=models / "model-none.txt", baseline="sram",
                    out=tmp_path / "out", empty=empty, dir=tmp_path)

    def _fails(self, name, given, bad, capsys):
        if "runs" not in given:
            given["runs"] = given["dir"] / "runs.csv"
            given["runs"].write_text("trace,core,total_energy_j,wall_time_s\n"
                                     f"{given['trace']},core1,1.0,2.0\n")
        assert run_cli(*_command(name, given)) == 1
        assert capsys.readouterr().err.startswith(f"config error: {bad}: ")
        assert not given["out"].exists()

    @pytest.mark.parametrize("name, baseline", [
        ("simulate", "sram"), ("sweep", "sram"), ("train", "sram"),
        ("predict", "sram"), ("schedule", "sram"), ("report", "sram"),
        ("report", "homog-400us")])  # only report reads the baseline
    def test_a_trace_without_accesses(self, given, capsys, name, baseline):
        given.update(trace=given["empty"], baseline=baseline)
        self._fails(name, given, given["empty"], capsys)

    @pytest.mark.parametrize("name, flag", [
        ("simulate", "trace"), ("simulate", "config"),
        ("sweep", "trace"), ("sweep", "config"),
        ("train", "trace"), ("train", "config"),
        ("predict", "trace"), ("predict", "config"), ("predict", "model"),
        ("schedule", "trace"), ("schedule", "config"),
        ("report", "runs"), ("report", "config"), ("report", "trace")])
    def test_a_directory(self, given, capsys, name, flag):
        given[flag] = given["dir"]
        self._fails(name, given, given["dir"], capsys)

    def test_a_models_path_that_is_a_file(self, given, capsys):
        given["models"] = given["empty"]
        self._fails("schedule", given, given["empty"] / "model-none.txt",
                    capsys)


class TestUnusableOutput:
    """An `--out` that names a file or passes through one, and a
    `gen-trace --name` that is empty or holds a directory, exit 1 naming the
    flag, and an output file with a directory in its place exits 1 naming
    the file, before any trace is read or generated."""

    @pytest.fixture
    def given(self, trained_models, tmp_path, monkeypatch):
        models, traces, cfg = trained_models
        runs = tmp_path / "runs.csv"
        runs.write_text("trace,core,total_energy_j,wall_time_s\n"
                        f"{traces[0]},core1,1.0,2.0\n")
        taken = tmp_path / "taken"
        taken.write_text("")
        work = []
        monkeypatch.setattr(cli, "load_trace", work.append)
        monkeypatch.setattr(cli, "gen_synthetic", lambda *a, **k: work.append(a))
        return dict(trace=traces[0], config=cfg, models=models,
                    model=models / "model-none.txt", runs=runs,
                    baseline="sram", out=tmp_path / "out", taken=taken,
                    work=work)

    @pytest.mark.parametrize("name", ["gen-trace", "simulate", "sweep", "train",
                                      "schedule", "report"])
    @pytest.mark.parametrize("under", ["", "sub"])
    def test_an_out_path_through_a_file(self, given, capsys, name, under):
        given["out"] = given["taken"] / under
        argv = (("gen-trace", "--seed", 1, "--out", given["out"])
                if name == "gen-trace" else _command(name, given))
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err == (
            "config error: --out must be a directory or a new path under one, "
            f"got {given['out']}\n")
        assert given["work"] == [] and given["taken"].read_text() == ""

    @pytest.mark.parametrize("name, extra, file", [
        ("gen-trace", (), "synth-1.trace"),
        ("gen-trace", ("--name", "t"), "t.trace"),
        ("simulate", (), "simulate.csv"),
        ("simulate", ("--append",), "simulate.csv"),
        ("sweep", (), "sweep.csv"),
        ("train", (), "model-none.txt"),
        ("train", ("--all-constraints",), "model-slack10.txt"),
        ("schedule", (), "decisions.csv"),
        ("report", (), "report.csv")])
    def test_an_output_file_that_is_a_directory(self, given, capsys, name,
                                                extra, file):
        (given["out"] / file).mkdir(parents=True)
        argv = (("gen-trace", "--seed", 1, "--out", given["out"])
                if name == "gen-trace" else _command(name, given))
        assert run_cli(*argv, *extra) == 1
        assert capsys.readouterr().err == (
            f"config error: {given['out'] / file}: Is a directory\n")
        assert given["work"] == []
        assert [p.name for p in given["out"].iterdir()] == [file]

    @pytest.mark.parametrize("bad", ["", "a/b", "a/"])
    def test_a_name_that_is_not_a_file_name(self, given, capsys, bad):
        assert run_cli("gen-trace", "--seed", 1, "--name", bad,
                       "--out", given["out"]) == 1
        assert capsys.readouterr().err == (
            "config error: --name must be a non-empty file name without a "
            f"directory, got {bad!r}\n")
        assert given["work"] == [] and not given["out"].exists()


class TestEncoding:
    """Every input file is read as UTF-8, a byte that is not UTF-8 read as a
    lone surrogate: it passes in a comment, fails the line that holds it
    (exit 1, naming the file and the line) and is written back as it was."""

    def test_a_config_comment(self, tmp_path, fig_trace):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"# caf\xe9\n[system]\nhistory_capacity = 5\n")
        assert load_config(cfg).history_capacity == 5
        assert run_cli("simulate", "--trace", fig_trace, "--core", "core1",
                       "--config", cfg, "--out", tmp_path / "out") == 0

    @pytest.mark.parametrize("name", ["config", "model", "runs"])
    def test_a_value(self, trained_models, tmp_path, capsys, name):
        models, traces, cfg = trained_models
        bad = tmp_path / f"bad-{name}"
        model = (models / "model-none.txt").read_bytes()
        assert model.split(b"\n")[1] == b"constraint none"
        content, argv, line = {
            "config": (b"[dvfs]\nstep_ghz = 0.2\xe9\n",
                       ("predict", "--model", models / "model-none.txt",
                        "--trace", traces[0], "--config", bad), 2),
            "model": (model.replace(b"constraint none", b"constraint n\xe9", 1),
                      ("predict", "--model", bad, "--trace", traces[0],
                       "--config", cfg), 2),
            "runs": (b"# generated\ntrace,core,total_energy_j,wall_time_s\n"
                     b"x.trace,core1,1.0,2.0\xe9\n",
                     ("report", "--runs", bad, "--baseline", "self",
                      "--out", tmp_path / "out"), 3),
        }[name]
        bad.write_bytes(content)
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err.startswith(
            f"config error: {bad}: line {line}: ")

    def test_a_runs_csv_trace_cell_is_written_back(self, tmp_path):
        runs = tmp_path / "runs.csv"
        runs.write_bytes(b"trace,core,total_energy_j,wall_time_s\n"
                         b"caf\xe9.trace,core1,1.0,2.0\n")
        out = tmp_path / "out"
        assert run_cli("report", "--runs", runs, "--baseline", "self",
                       "--out", out, "--no-timestamp") == 0
        rows = (out / "report.csv").read_bytes().splitlines()
        assert rows[1] == b"caf\xe9.trace,core1,1.0,1.0,1.0,2.0,2.0,1.0,0"


class TestModelChecks:
    """A model file's header holds each key once, only the known keys and
    hyper-parameters, and no name twice; a model is checked against the
    system, by the CLI and by every `Scheduler`, before any work."""

    @pytest.mark.parametrize("old, new, line", [
        ("constraint none\n", "constraint none\nconstraint slack10\n", 3),
        ("constraint none\n", "constraint none\ndepth 3\n", 3),
        ("min_samples_leaf=1", "min_samples_leaf=1 bogus=7", 3),
        ("min_samples_leaf=1", "min_samples_leaf=1 max_depth=5", 3),
        ("features l1d_hits ", "features l1d_hits l1d_hits ", 4),
        ("labels core1 ", "labels core1 core1 ", 5),
    ], ids=["constraint-twice", "unknown-key", "unknown-hyper", "hyper-twice",
            "feature-twice", "label-twice"])
    def test_a_header_line_names_its_line(self, trained_models, tmp_path,
                                          capsys, old, new, line):
        models, traces, cfg = trained_models
        text = (models / "model-none.txt").read_text()
        assert old in text
        bad = tmp_path / "model-none.txt"
        bad.write_text(text.replace(old, new, 1))
        assert run_cli("predict", "--model", bad, "--trace", traces[0],
                       "--config", cfg) == 1
        assert capsys.readouterr().err.startswith(
            f"config error: {bad}: line {line}: ")

    def test_a_non_finite_split_threshold(self, trained_models, tmp_path,
                                          capsys):
        _, traces, cfg = trained_models
        bad = tmp_path / "model-none.txt"
        bad.write_text("sttsim-tree v1\nconstraint none\n"
                       "hyper max_depth=5 min_samples_leaf=1\n"
                       "features l1d_hits\nlabels core1 core2\n"
                       "node split l1d_hits nan\n"
                       "node leaf core1 core1=1\nnode leaf core2 core2=1\n")
        assert run_cli("predict", "--model", bad, "--trace", traces[0],
                       "--config", cfg) == 1
        assert capsys.readouterr().err.startswith(
            f"config error: {bad}: line 6: bad split threshold")

    @pytest.mark.parametrize("names, labels, message", [
        (("l1d_hits",), ("core1", "coreX"),
         "labels ['coreX'] are not cores of the system"),
        (("bogus",), ("core1", "core2"), "unknown features ['bogus']"),
    ], ids=["label-coreX", "feature-bogus"])
    def test_a_model_the_system_cannot_run(self, trained_models, tmp_path,
                                           capsys, names, labels, message):
        models, traces, cfg_path = trained_models
        cfg = load_config(cfg_path)
        model = CorePredictor(feature_names=names, label_order=labels).fit(
            [[0.0], [1.0]], list(labels))
        with pytest.raises(ConfigError, match=re.escape(message)):
            Scheduler(cfg.system, PowerModel(), {"none": model})
        path = tmp_path / "model-none.txt"
        save_model(model, Constraint("none"), path)
        assert run_cli("predict", "--model", path, "--trace", traces[0],
                       "--config", cfg_path) == 1
        assert capsys.readouterr().err.startswith(
            f"config error: {path}: {message}")
