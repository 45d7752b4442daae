import csv
import os
import subprocess
import sys

import pytest

from sttsim import (Constraint, TrainingSet, cli, dump_tree, engine, features,
                    label_oracle, load_config, load_trace, profile_application,
                    scheduler, train_tree)
from sttsim.cli import main
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

    def test_seed_is_mandatory(self, tmp_path, capsys):
        assert run_cli("gen-trace", "--out", tmp_path) == 1
        assert "--seed" in capsys.readouterr().err


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

    def test_frequency_above_cap_is_runtime_error(self, tmp_path, fig_trace, capsys):
        code = run_cli("simulate", "--trace", fig_trace, "--core", "core1",
                       "--freq", "2.0", "--out", tmp_path)
        assert code == 2
        assert "error" in capsys.readouterr().err

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
                          "max_freq_ghz = 2.0\nwrite_cycle_budget = 2\n")
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
        # One worker: runs in forked sweep workers would not be counted here.
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        out = tmp_path / "models"
        assert run_cli("train", "--traces", *traces, "--all-constraints",
                       "--config", cfg_path, "--out", out,
                       "--no-timestamp") == 0
        # One profiling window and one 22-point sweep per trace.
        assert len(calls) == 2 + 2 * 22
        monkeypatch.undo()

        # Sweeps on the default number of workers write the same files.
        parallel = tmp_path / "parallel"
        assert run_cli("train", "--traces", *traces, "--all-constraints",
                       "--config", cfg_path, "--out", parallel,
                       "--no-timestamp") == 0
        for kind in KINDS:
            name = f"model-{kind}.txt"
            assert (parallel / name).read_bytes() == (out / name).read_bytes()

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
                label_order=tuple(cfg.system.labels()),
                provenance=f"profiling_core={cfg.system.profiling_core} "
                           f"interval={cfg.profiling_interval}")
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

    def test_report_missing_column_is_config_error(self, tmp_path, capsys):
        runs = tmp_path / "runs.csv"
        runs.write_text("trace,core,total_energy_j\nx.trace,core1,1.0\n")
        assert run_cli("report", "--runs", runs, "--out", tmp_path) == 1
        assert f"{runs}: no 'wall_time_s' column" in capsys.readouterr().err

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
