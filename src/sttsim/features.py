"""Hardware-counter features profiled over an application's warm-up window.

Counters are normalized per million executed instructions; bus utilizations
are ratios of busy to total cycles. The trace format carries no instruction
addresses, so the modeled instruction cache never misses and its counter is
structurally zero (kept so every documented feature set stays complete).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .config import System
from .engine import PowerModel, RunResult, simulate_run
from .trace import Trace

PER_MILLION = 1e6


@dataclass(frozen=True)
class FeatureVector:
    l1d_hits: float
    l1d_read_accesses: float
    l1d_read_misses: float
    l1d_total_misses: float
    l1i_total_misses: float
    mem_idle_time: float
    mem_read_hits: float
    mem_bus_util_read: float
    mem_bus_util_write: float

    def get(self, name: str) -> float:
        try:
            return getattr(self, name)
        except AttributeError:
            raise KeyError(f"unknown feature {name!r}") from None

    def row(self, names) -> list[float]:
        return [self.get(n) for n in names]

    @staticmethod
    def names() -> tuple[str, ...]:
        return tuple(f.name for f in fields(FeatureVector))


def features_from_run(run: RunResult) -> FeatureVector:
    """Derive the feature vector from one profiled run's counters."""
    st = run.stats
    if run.instructions <= 0:
        raise ValueError("profiled run executed no instructions")
    per_m = PER_MILLION / run.instructions
    cycles = run.cycles or 1.0
    clamp = lambda x: min(1.0, max(0.0, x))
    return FeatureVector(
        l1d_hits=st.hits * per_m,
        l1d_read_accesses=(st.read_hits + st.read_misses) * per_m,
        l1d_read_misses=st.read_misses * per_m,
        l1d_total_misses=st.misses * per_m,
        l1i_total_misses=0.0,
        mem_idle_time=st.mem_idle_cycles * per_m,
        mem_read_hits=st.mem_read_hits * per_m,
        mem_bus_util_read=clamp(st.mem_busy_read_cycles / cycles),
        mem_bus_util_write=clamp(st.mem_busy_write_cycles / cycles),
    )


def profile_application(trace: Trace, system: System, power: PowerModel,
                        interval: int) -> tuple[FeatureVector, RunResult]:
    """Run the profiling window on the system's profiling core and extract
    the feature vector the prediction models consume."""
    core = system.core(system.profiling_core)
    run = simulate_run(trace, core, core.operating_freq_ghz, power,
                       limit=interval)
    return features_from_run(run), run
