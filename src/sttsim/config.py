"""Device, core and DVFS parameter tables plus the cycle/voltage derivations,
and the one reader and error type of every input file.

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

# How every file is read and written: UTF-8, with a byte that is not UTF-8
# read as a lone surrogate and written back as the same byte.
ENCODING = {"encoding": "utf-8", "errors": "surrogateescape"}


class ConfigError(ValueError):
    """A bad input file or flag; its text names the file and line if known."""

    def __init__(self, line_no: int | None, message: str, path=None):
        where = "" if path is None else f"{path}: "
        if line_no:
            where += f"line {line_no}: "
        super().__init__(where + message)
        self.line_no, self.message, self.path = line_no, message, path


def read_input(path, parse, newline=None):
    """`parse(fh)` of the file at `path` opened by `ENCODING`, so a byte that
    is not UTF-8 fails the grammar of its line and passes in a comment. A
    missing path or a directory, and a ConfigError from `parse`, become one
    of the same class naming `path`."""
    try:
        with open(path, newline=newline, **ENCODING) as fh:
            return parse(fh)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        raise ConfigError(None, exc.strerror, path) from None
    except ConfigError as exc:
        raise type(exc)(exc.line_no, exc.message, path) from None


@dataclass(frozen=True)
class MemTechnology:
    """One memory technology row: latencies, per-access energies, leakage.

    retention_time is in seconds; INFINITE marks a non-expiring technology
    (SRAM). Latencies are nanoseconds, energies joules per access, leakage
    watts.
    """

    name: str
    retention_time: float
    hit_latency_ns: float
    write_latency_ns: float
    read_energy_j: float
    write_energy_j: float
    leakage_w: float

    def __post_init__(self):
        if not (0 < self.hit_latency_ns < INFINITE
                and 0 < self.write_latency_ns < INFINITE):
            raise ValueError(f"{self.name}: latencies must be finite and > 0")
        if not (0 <= self.read_energy_j < INFINITE
                and 0 <= self.write_energy_j < INFINITE):
            raise ValueError(f"{self.name}: energies must be finite and >= 0")
        if not 0 <= self.leakage_w < INFINITE:
            raise ValueError(f"{self.name}: leakage must be finite and >= 0")
        if not 0 < self.retention_time <= INFINITE:
            raise ValueError(f"{self.name}: retention must be > 0 or infinite")


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
        if not (0 < self.min_freq_ghz < INFINITE
                and 0 < self.step_ghz < INFINITE
                and self.max_freq_ghz < INFINITE):
            raise ValueError("frequencies and step must be finite and > 0")
        if not self.min_freq_ghz <= self.max_freq_ghz + _EPS:
            raise ValueError("min_freq must be <= max_freq")
        if not 0 < self.min_voltage_v <= self.max_voltage_v < INFINITE:
            raise ValueError(f"voltages must be finite with 0 < min_voltage "
                             f"({self.min_voltage_v} V) <= max_voltage "
                             f"({self.max_voltage_v} V)")
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
        if not self.min_freq_ghz - _EPS <= freq_ghz <= self.max_freq_ghz + _EPS:
            return False  # NaN fails every comparison
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
    """One heterogeneous core: memory technologies, DVFS range, timing knobs.

    The operating frequency defaults to the cap and must lie on the DVFS grid.
    """

    core_id: str
    data_tech: MemTechnology
    geometry: CacheGeometry = CacheGeometry()
    dvfs: DvfsRange = DvfsRange()
    operating_freq_ghz: float | None = None
    counter_states_k: int = 4
    base_cpi: float = 1.0
    miss_penalty_ns: float = 50.0

    def __post_init__(self):
        if self.operating_freq_ghz is None:
            object.__setattr__(self, "operating_freq_ghz", self.freq_cap_ghz)
        if not self.dvfs.on_grid(self.operating_freq_ghz):
            raise ValueError(f"operating frequency {self.operating_freq_ghz} GHz "
                             f"is off the DVFS grid")
        k = self.counter_states_k
        if not (k >= 2 and float(k).is_integer()):
            raise ValueError(f"counter_states_k must be an integer >= 2, got {k}")
        object.__setattr__(self, "counter_states_k", int(k))
        if not 0 < self.base_cpi < INFINITE:
            raise ValueError(f"base_cpi must be finite and > 0, got {self.base_cpi}")
        if not 0 <= self.miss_penalty_ns < INFINITE:
            raise ValueError(f"miss_penalty_ns must be finite and >= 0, "
                             f"got {self.miss_penalty_ns}")

    @property
    def freq_cap_ghz(self) -> float:
        return self.dvfs.max_freq_ghz

    def write_cycles(self, freq_ghz: float) -> int:
        return access_cycles(freq_ghz, self.data_tech.write_latency_ns)

    def read_cycles(self, freq_ghz: float) -> int:
        return access_cycles(freq_ghz, self.data_tech.hit_latency_ns)


def make_core(core_id: str, data_tech: MemTechnology, line: DvfsRange = DvfsRange(),
              min_freq_ghz: float | None = None, max_freq_ghz: float | None = None,
              **knobs) -> CoreSpec:
    """A core whose DVFS range is [min_freq_ghz, max_freq_ghz] on `line`'s
    grid (the whole line by default), its voltages read off the line.
    `knobs` are the remaining CoreSpec fields."""
    low = line.min_freq_ghz if min_freq_ghz is None else min_freq_ghz
    cap = line.max_freq_ghz if max_freq_ghz is None else max_freq_ghz
    dvfs = DvfsRange(low, cap, line.step_ghz, voltage_for_frequency(line, low),
                     voltage_for_frequency(line, cap))
    return CoreSpec(core_id=core_id, data_tech=data_tech, dvfs=dvfs, **knobs)


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
        # Default the profiling core to the shortest-retention core (the
        # first, if all retain forever) and the base core to the fastest.
        if not self.profiling_core:
            shortest = min(self.cores, key=lambda c: c.data_tech.retention_time)
            object.__setattr__(self, "profiling_core", shortest.core_id)
        if not self.base_core:
            object.__setattr__(self, "base_core", self.speed_order()[0])
        for role, label in (("profiling", self.profiling_core), ("base", self.base_core)):
            if label not in labels:
                raise ValueError(f"{role} core {label!r} is not in the system")

    def core(self, label: str) -> CoreSpec:
        return self.cores[self.core_index(label)]

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


# Published device rows: hit/write latency (ns), read/write energy (J/access),
# leakage (W). STT-RAM rows share one leakage figure.
SRAM = MemTechnology("sram", INFINITE, 0.453, 0.312, 0.007e-9, 0.006e-9,
                     50.328e-3)
STT_10US = MemTechnology("stt_10us", 10e-6, 0.464, 0.601, 0.003e-9, 0.026e-9,
                         13.1448e-3)
STT_26_5US = MemTechnology("stt_26_5us", 26.5e-6, 0.454, 0.769, 0.003e-9,
                           0.030e-9, 13.1448e-3)
STT_75US = MemTechnology("stt_75us", 75e-6, 0.445, 0.981, 0.003e-9, 0.035e-9,
                         13.1448e-3)
STT_400US = MemTechnology("stt_400us", 400e-6, 0.443, 1.389, 0.003e-9,
                          0.045e-9, 13.1448e-3)

TECHNOLOGIES = {t.name: t for t in (SRAM, STT_10US, STT_26_5US, STT_75US, STT_400US)}

# The reference system: retention times paired with frequency caps that hold
# each cache's write access to one, one, two and three cycles.
DEFAULT_CORES = (("core1", "stt_10us", 1.6), ("core2", "stt_26_5us", 1.2),
                 ("core3", "stt_75us", 2.0), ("core4", "stt_400us", 2.0))
