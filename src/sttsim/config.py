"""Device, core and DVFS parameter tables plus the cycle/voltage derivations.

Everything here is immutable after construction so specs can be shared freely
across concurrently running simulations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

INFINITE = math.inf

# Snap tolerance for "exact integer" products and grid membership checks.
# Grid frequencies and published latencies are short decimals, so products
# that are mathematically integral can land a few ulps off.
_EPS = 1e-9


@dataclass(frozen=True)
class MemTechnology:
    """One memory technology row: latencies, per-access energies, leakage.

    retention_time is in seconds; INFINITE marks a non-expiring technology
    (SRAM). Latencies are nanoseconds, energies joules per access, leakage
    watts.
    """

    name: str
    kind: str  # "sram" | "sttram"
    retention_time: float
    hit_latency_ns: float
    write_latency_ns: float
    read_energy_j: float
    write_energy_j: float
    leakage_w: float

    def __post_init__(self):
        if self.kind not in ("sram", "sttram"):
            raise ValueError(f"unknown memory kind {self.kind!r}")
        if self.hit_latency_ns <= 0 or self.write_latency_ns <= 0:
            raise ValueError(f"{self.name}: latencies must be > 0")
        if self.read_energy_j < 0 or self.write_energy_j < 0:
            raise ValueError(f"{self.name}: energies must be >= 0")
        if self.leakage_w < 0:
            raise ValueError(f"{self.name}: leakage must be >= 0")
        if self.kind == "sram" and not math.isinf(self.retention_time):
            raise ValueError(f"{self.name}: SRAM retention must be infinite")
        if self.retention_time <= 0:
            raise ValueError(f"{self.name}: retention must be > 0")

    @property
    def is_volatile(self) -> bool:
        """True when blocks expire (finite retention)."""
        return not math.isinf(self.retention_time)


@dataclass(frozen=True)
class CacheGeometry:
    capacity_bytes: int = 32 * 1024
    line_bytes: int = 64
    ways: int = 4

    def __post_init__(self):
        for label, v in (("capacity", self.capacity_bytes),
                         ("line size", self.line_bytes),
                         ("associativity", self.ways)):
            if v < 1 or v & (v - 1):
                raise ValueError(f"{label} must be a power of two, got {v}")
        if self.sets < 1:
            raise ValueError("geometry yields fewer than one set")

    @property
    def sets(self) -> int:
        return self.capacity_bytes // (self.line_bytes * self.ways)


@dataclass(frozen=True)
class DvfsRange:
    """Frequency grid [min_freq, max_freq] in GHz and its voltage endpoints."""

    min_freq_ghz: float = 0.8
    max_freq_ghz: float = 2.0
    step_ghz: float = 0.2
    min_voltage_v: float = 0.9
    max_voltage_v: float = 1.35

    def __post_init__(self):
        if self.min_freq_ghz <= 0 or self.step_ghz <= 0:
            raise ValueError("frequencies and step must be > 0")
        if self.min_freq_ghz > self.max_freq_ghz + _EPS:
            raise ValueError("min_freq must be <= max_freq")
        span = self.max_freq_ghz - self.min_freq_ghz
        steps = span / self.step_ghz
        if abs(steps - round(steps)) > _EPS:
            raise ValueError(
                f"frequency span {span} GHz is not a multiple of step {self.step_ghz}")

    def grid(self) -> list[float]:
        """All operating frequencies, ascending."""
        n = round((self.max_freq_ghz - self.min_freq_ghz) / self.step_ghz)
        return [round(self.min_freq_ghz + i * self.step_ghz, 6) for i in range(n + 1)]

    def on_grid(self, freq_ghz: float) -> bool:
        if freq_ghz < self.min_freq_ghz - _EPS or freq_ghz > self.max_freq_ghz + _EPS:
            return False
        i = (freq_ghz - self.min_freq_ghz) / self.step_ghz
        return abs(i - round(i)) <= _EPS


def access_cycles(freq_ghz: float, latency_ns: float) -> int:
    """Cycles consumed by a cache access of `latency_ns` at `freq_ghz`.

    ceil(frequency x latency), with exactly-integral products mapping to
    themselves rather than being bumped up by float noise. Any positive
    latency costs at least one cycle.
    """
    if freq_ghz <= 0:
        raise ValueError(f"frequency must be > 0, got {freq_ghz}")
    if latency_ns < 0:
        raise ValueError(f"latency must be >= 0, got {latency_ns}")
    product = freq_ghz * latency_ns
    nearest = round(product)
    cycles = nearest if abs(product - nearest) <= _EPS else math.ceil(product)
    if latency_ns > 0:
        cycles = max(cycles, 1)
    return int(cycles)


def voltage_for_frequency(dvfs: DvfsRange, freq_ghz: float) -> float:
    """Supply voltage at a grid frequency, interpolated between the endpoints."""
    if not dvfs.on_grid(freq_ghz):
        raise ValueError(
            f"{freq_ghz} GHz is not on the {dvfs.min_freq_ghz}-{dvfs.max_freq_ghz} "
            f"GHz grid (step {dvfs.step_ghz})")
    span = dvfs.max_freq_ghz - dvfs.min_freq_ghz
    if span == 0:
        return dvfs.min_voltage_v
    frac = (freq_ghz - dvfs.min_freq_ghz) / span
    return dvfs.min_voltage_v + frac * (dvfs.max_voltage_v - dvfs.min_voltage_v)


@dataclass(frozen=True)
class CoreSpec:
    """One heterogeneous core: memory technologies, DVFS range, timing knobs."""

    core_id: str
    data_tech: MemTechnology
    geometry: CacheGeometry = CacheGeometry()
    dvfs: DvfsRange = DvfsRange()
    operating_freq_ghz: float = 2.0
    write_cycle_budget: int = 1
    counter_states_k: int = 4
    base_cpi: float = 1.0
    miss_penalty_ns: float = 50.0

    @property
    def freq_cap_ghz(self) -> float:
        return self.dvfs.max_freq_ghz

    def write_cycles(self, freq_ghz: float) -> int:
        return access_cycles(freq_ghz, self.data_tech.write_latency_ns)

    def read_cycles(self, freq_ghz: float) -> int:
        return access_cycles(freq_ghz, self.data_tech.hit_latency_ns)


@dataclass(frozen=True)
class ValidationIssue:
    subject: str
    message: str

    def __str__(self):
        return f"{self.subject}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...]
    write_cycles_at_cap: int
    read_cycles_at_cap: int

    @property
    def ok(self) -> bool:
        return not self.issues


def validate_core_spec(spec: CoreSpec) -> ValidationReport:
    """Check every core invariant; findings are reported, never raised."""
    issues = []

    def flag(msg):
        issues.append(ValidationIssue(spec.core_id, msg))

    if not spec.dvfs.on_grid(spec.operating_freq_ghz):
        flag(f"operating frequency {spec.operating_freq_ghz} GHz is off the DVFS grid")
    if spec.counter_states_k < 2:
        flag(f"counter needs >= 2 states, got {spec.counter_states_k}")
    if spec.base_cpi <= 0:
        flag(f"base CPI must be > 0, got {spec.base_cpi}")
    if spec.miss_penalty_ns < 0:
        flag(f"miss penalty must be >= 0, got {spec.miss_penalty_ns}")

    cap = spec.freq_cap_ghz
    wc = spec.write_cycles(cap)
    rc = spec.read_cycles(cap)
    if wc != spec.write_cycle_budget:
        flag(f"write cycles at {cap} GHz cap are {wc}, "
             f"declared budget is {spec.write_cycle_budget}")
    if rc != 1:
        flag(f"read cycles at {cap} GHz cap are {rc}, expected 1")
    return ValidationReport(tuple(issues), wc, rc)


@dataclass(frozen=True)
class System:
    """An ordered set of cores, optionally replicated into identical clusters."""

    cores: tuple[CoreSpec, ...]
    cluster_count: int = 1
    profiling_core: str = ""
    base_core: str = ""

    def __post_init__(self):
        if not self.cores:
            raise ValueError("system needs at least one core")
        labels = [c.core_id for c in self.cores]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate core labels: {labels}")
        if self.cluster_count < 1:
            raise ValueError("cluster_count must be >= 1")
        # Default the profiling core to the shortest-retention core and the
        # base core to the core with the fewest write cycles at the top cap.
        if not self.profiling_core:
            object.__setattr__(self, "profiling_core", self._default_profiling())
        if not self.base_core:
            object.__setattr__(self, "base_core", self._default_base())
        for role, label in (("profiling", self.profiling_core), ("base", self.base_core)):
            if label not in labels:
                raise ValueError(f"{role} core {label!r} is not in the system")

    def _default_profiling(self) -> str:
        volatile = [c for c in self.cores if c.data_tech.is_volatile]
        pool = volatile or list(self.cores)
        return min(pool, key=lambda c: c.data_tech.retention_time).core_id

    def _default_base(self) -> str:
        return min(
            self.cores,
            key=lambda c: (-c.freq_cap_ghz, c.write_cycles(c.freq_cap_ghz),
                           self.cores.index(c)),
        ).core_id

    def core(self, label: str) -> CoreSpec:
        for c in self.cores:
            if c.core_id == label:
                return c
        raise KeyError(f"no core labelled {label!r}")

    def core_index(self, label: str) -> int:
        for i, c in enumerate(self.cores):
            if c.core_id == label:
                return i
        raise KeyError(f"no core labelled {label!r}")

    def labels(self) -> list[str]:
        return [c.core_id for c in self.cores]

    def speed_order(self) -> list[str]:
        """Core labels fastest-first: by cap, then write cycles, then index."""
        ranked = sorted(
            range(len(self.cores)),
            key=lambda i: (-self.cores[i].freq_cap_ghz,
                           self.cores[i].write_cycles(self.cores[i].freq_cap_ghz),
                           i),
        )
        return [self.cores[i].core_id for i in ranked]


def validate_system(system: System) -> list[ValidationIssue]:
    """Per-core checks plus the cross-technology monotonicity invariant."""
    issues = []
    for core in system.cores:
        issues.extend(validate_core_spec(core).issues)
    stt = sorted(
        {c.data_tech for c in system.cores if c.data_tech.kind == "sttram"},
        key=lambda t: t.retention_time,
    )
    for lo, hi in zip(stt, stt[1:]):
        if hi.write_latency_ns <= lo.write_latency_ns:
            issues.append(ValidationIssue(
                hi.name,
                f"write latency {hi.write_latency_ns} ns does not increase over "
                f"{lo.name} ({lo.write_latency_ns} ns) despite longer retention"))
    return issues


# Published device rows: hit/write latency (ns), read/write energy (J/access),
# leakage (W). STT-RAM rows share one leakage figure.
SRAM = MemTechnology("sram", "sram", INFINITE, 0.453, 0.312,
                     0.007e-9, 0.006e-9, 50.328e-3)
STT_10US = MemTechnology("stt_10us", "sttram", 10e-6, 0.464, 0.601,
                         0.003e-9, 0.026e-9, 13.1448e-3)
STT_26_5US = MemTechnology("stt_26_5us", "sttram", 26.5e-6, 0.454, 0.769,
                           0.003e-9, 0.030e-9, 13.1448e-3)
STT_75US = MemTechnology("stt_75us", "sttram", 75e-6, 0.445, 0.981,
                         0.003e-9, 0.035e-9, 13.1448e-3)
STT_400US = MemTechnology("stt_400us", "sttram", 400e-6, 0.443, 1.389,
                          0.003e-9, 0.045e-9, 13.1448e-3)

TECHNOLOGIES = {t.name: t for t in (SRAM, STT_10US, STT_26_5US, STT_75US, STT_400US)}

def _default_dvfs(cap_ghz: float) -> DvfsRange:
    base = DvfsRange()
    return DvfsRange(base.min_freq_ghz, cap_ghz, base.step_ghz,
                     base.min_voltage_v, voltage_for_frequency(base, cap_ghz))


def default_system(cluster_count: int = 1) -> System:
    """The four-core reference system: retention times paired with frequency
    caps that hold each cache's write access to its cycle budget."""
    mk = lambda cid, tech, cap, budget: CoreSpec(
        core_id=cid, data_tech=tech, dvfs=_default_dvfs(cap),
        operating_freq_ghz=cap, write_cycle_budget=budget)
    return System(cores=(
        mk("core1", STT_10US, 1.6, 1),
        mk("core2", STT_26_5US, 1.2, 1),
        mk("core3", STT_75US, 2.0, 2),
        mk("core4", STT_400US, 2.0, 3),
    ), cluster_count=cluster_count)


def homogeneous_system(tech: MemTechnology, count: int = 4,
                       cap_ghz: float = 2.0) -> System:
    """A system whose cores all share one data technology (baseline builds)."""
    budget = access_cycles(cap_ghz, tech.write_latency_ns)
    cores = tuple(
        CoreSpec(core_id=f"core{i + 1}", data_tech=tech,
                 dvfs=_default_dvfs(cap_ghz), operating_freq_ghz=cap_ghz,
                 write_cycle_budget=budget)
        for i in range(count))
    return System(cores=cores)


def sram_system(count: int = 4) -> System:
    return homogeneous_system(SRAM, count)
