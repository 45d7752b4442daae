import time
from dataclasses import dataclass

import pytest

from sttsim import (Constraint, CorePredictor, FeatureVector, PowerModel,
                    RunResult, System, TrainingSet, cache, default_system,
                    exhaustive_sweep, profile_application, select_best,
                    train_tree)
from sttsim.constraints import KINDS

from workloads import PROFILING_INTERVAL, App, test_suite, training_suite


def pytest_runtest_logreport(report):
    # One visible pass/fail line per acceptance criterion.
    if report.when == "call" and "test_acceptance.py" in report.nodeid:
        name = report.nodeid.rsplit("::", 1)[-1]
        print(f"\nACCEPTANCE {name}: {report.outcome.upper()}")


# Wall-clock cost of the shared fixtures, charged to criterion 5's budget.
FIXTURE_SECONDS = {"total": 0.0}


def _timed(fn, *args):
    started = time.monotonic()
    result = fn(*args)
    FIXTURE_SECONDS["total"] += time.monotonic() - started
    return result


@pytest.fixture(scope="session")
def system() -> System:
    return default_system()


@pytest.fixture(scope="session")
def power() -> PowerModel:
    return PowerModel()


@pytest.fixture
def lru_passes(monkeypatch):
    """The address streams `simulate_run` computes shadow hit bits for."""
    passes = []

    class Counted(cache.LruShadow):
        def run(self, gaps, writes, addrs):
            passes.append((len(addrs), self.geometry))
            return super().run(gaps, writes, addrs)
    monkeypatch.setattr(cache, "LruShadow", Counted)
    return passes


@dataclass(frozen=True)
class AppOracle:
    app: App
    features: FeatureVector
    rows: tuple[RunResult, ...]
    best: dict  # constraint kind -> (RunResult, deadline_s, violation)

    def label(self, kind: str) -> str:
        return self.best[kind][0].core_id

    def best_energy(self, kind: str) -> float:
        return self.best[kind][0].total_energy_j

    def deadline(self, kind: str) -> float:
        return self.best[kind][1]


def _oracle_for(app: App, system, power) -> AppOracle:
    features, _ = profile_application(app.trace, system, power,
                                      PROFILING_INTERVAL)
    rows = exhaustive_sweep(app.trace, system, power, Constraint("none")).rows
    best = {}
    for kind in KINDS:
        chosen, deadline, violation = select_best(rows, system, Constraint(kind))
        best[kind] = (chosen, deadline, violation)
    return AppOracle(app, features, rows, best)


@pytest.fixture(scope="session")
def train_oracle(system, power) -> list[AppOracle]:
    return _timed(lambda: [_oracle_for(app, system, power)
                           for app in training_suite()])


@pytest.fixture(scope="session")
def test_oracle(system, power) -> list[AppOracle]:
    return _timed(lambda: [_oracle_for(app, system, power)
                           for app in test_suite()])


@pytest.fixture(scope="session")
def models(system, train_oracle) -> dict[str, CorePredictor]:
    def build():
        labels = tuple(system.labels())
        out = {}
        for kind in KINDS:
            constraint = Constraint(kind)
            rows = tuple((o.features, o.label(kind)) for o in train_oracle)
            data = TrainingSet(rows=rows, constraint=constraint,
                               label_order=labels)
            out[kind] = train_tree(data)
        return out
    return _timed(build)
