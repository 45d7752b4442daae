"""Experiment configuration files.

Line-oriented `key = value` pairs grouped under bracketed section headers:

    [dvfs] [cache] [power] [system] [tech.<name>] [core.<id>]

Every error carries a line number: the offending line's, or for a value
the section rejects as a whole, its header's. When any [core.*] section is
present the file defines the whole core set; otherwise the built-in
four-core system is used and the other sections only tune it. See the
README for the full key reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .config import (CacheGeometry, CoreSpec, DvfsRange, MemTechnology, System,
                     TECHNOLOGIES, default_system, voltage_for_frequency)
from .engine import PowerModel
from .scheduler import (DEFAULT_HISTORY_CAPACITY, DEFAULT_MIGRATION_TIME_S,
                        DEFAULT_PREDICTION_TIME_S, DEFAULT_PROFILING_INTERVAL)


class ConfigError(ValueError):
    def __init__(self, line_no: int | None, message: str):
        where = f"line {line_no}: " if line_no else ""
        super().__init__(where + message)
        self.line_no = line_no


_SECTION_KEYS = {
    "dvfs": {"min_freq_ghz", "max_freq_ghz", "step_ghz",
             "min_voltage_v", "max_voltage_v"},
    "cache": {"capacity_bytes", "line_bytes", "ways"},
    "power": {"effective_capacitance_f", "static_power_points"},
    "system": {"cluster_count", "profiling_core", "base_core",
               "history_capacity", "profiling_interval",
               "prediction_time_us", "migration_time_us"},
    "tech": {"kind", "retention_s", "hit_latency_ns", "write_latency_ns",
             "read_energy_nj", "write_energy_nj", "leakage_mw"},
    "core": {"data_tech", "min_freq_ghz", "max_freq_ghz",
             "operating_freq_ghz", "write_cycle_budget", "counter_states_k",
             "base_cpi", "miss_penalty_ns"},
}


@dataclass
class ExperimentConfig:
    system: System
    power: PowerModel
    technologies: dict[str, MemTechnology]
    history_capacity: int = DEFAULT_HISTORY_CAPACITY
    profiling_interval: int = DEFAULT_PROFILING_INTERVAL
    prediction_time_s: float = DEFAULT_PREDICTION_TIME_S
    migration_time_s: float = DEFAULT_MIGRATION_TIME_S


def default_config() -> ExperimentConfig:
    return ExperimentConfig(system=default_system(), power=PowerModel(),
                            technologies=dict(TECHNOLOGIES))


def _tokenize(text: str):
    """Yield (line_no, section, key, value) plus section-open events."""
    section = None
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(line_no, f"unterminated section header {line!r}")
            section = line[1:-1].strip()
            if not section:
                raise ConfigError(line_no, "empty section name")
            family, _, name = section.partition(".")
            if family == "core" and name.isdigit():
                section = f"core.core{name}"  # [core.1] defines core1
            yield line_no, section, None, None
            continue
        if section is None:
            raise ConfigError(line_no, f"{line!r} appears before any [section]")
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(line_no, f"expected 'key = value', got {line!r}")
        yield line_no, section, key.strip(), value.strip()


def _check_key(line_no, section, key):
    family = section.split(".", 1)[0]
    allowed = _SECTION_KEYS.get(family)
    if allowed is None:
        raise ConfigError(line_no, f"unknown section [{section}]")
    if family in ("tech", "core") and "." not in section:
        raise ConfigError(line_no, f"[{family}] sections need a name: [{family}.x]")
    if key is not None and key not in allowed:
        raise ConfigError(
            line_no, f"unknown key {key!r} in [{section}] "
            f"(expected one of: {', '.join(sorted(allowed))})")


def _num(line_no, key, value) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(line_no, f"{key}: expected a number, got {value!r}") from None


def _intval(line_no, key, value) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(line_no, f"{key}: expected an integer, got {value!r}") from None


def parse_config(text: str) -> ExperimentConfig:
    sections: dict[str, dict[str, tuple[int, str]]] = {}
    headers: dict[str, int] = {}  # the line of each section's header
    for line_no, section, key, value in _tokenize(text):
        _check_key(line_no, section, key)
        if key is None:
            if section in sections:
                raise ConfigError(line_no, f"duplicate section [{section}]")
            sections[section] = {}
            headers[section] = line_no
            continue
        if key in sections[section]:
            raise ConfigError(line_no, f"duplicate key {key!r} in [{section}]")
        sections[section][key] = (line_no, value)

    def take(section, key, conv, default, low=None):
        if section not in sections or key not in sections[section]:
            return default
        line_no, value = sections[section][key]
        number = conv(line_no, key, value)
        if low is not None and not low <= number < math.inf:
            raise ConfigError(line_no, f"{key}: must be a finite number >= {low}")
        return number

    base_dvfs = _build(headers.get("dvfs"), "dvfs", DvfsRange,
        min_freq_ghz=take("dvfs", "min_freq_ghz", _num, 0.8),
        max_freq_ghz=take("dvfs", "max_freq_ghz", _num, 2.0),
        step_ghz=take("dvfs", "step_ghz", _num, 0.2),
        min_voltage_v=take("dvfs", "min_voltage_v", _num, 0.9),
        max_voltage_v=take("dvfs", "max_voltage_v", _num, 1.35),
    )
    geometry = _build(headers.get("cache"), "cache", CacheGeometry,
        capacity_bytes=take("cache", "capacity_bytes", _intval, 32 * 1024),
        line_bytes=take("cache", "line_bytes", _intval, 64),
        ways=take("cache", "ways", _intval, 4),
    )

    power = _parse_power(sections.get("power", {}), headers.get("power"))
    technologies = dict(TECHNOLOGIES)
    for name, spec, at in _iter_named(sections, headers, "tech"):
        technologies[name] = _parse_tech(name, spec, at)

    core_sections = list(_iter_named(sections, headers, "core"))
    if core_sections:
        cores = tuple(
            _parse_core(name, spec, at, technologies, base_dvfs, geometry)
            for name, spec, at in core_sections)
    else:
        cores = tuple(
            replace(c, geometry=geometry) for c in default_system().cores)

    system = _build(headers.get("system"), "system", System,
        cores=cores,
        cluster_count=take("system", "cluster_count", _intval, 1),
        profiling_core=take("system", "profiling_core", lambda l, k, v: v, ""),
        base_core=take("system", "base_core", lambda l, k, v: v, ""),
    )

    return ExperimentConfig(
        system=system,
        power=power,
        technologies=technologies,
        history_capacity=take("system", "history_capacity", _intval,
                              DEFAULT_HISTORY_CAPACITY, low=1),
        profiling_interval=take("system", "profiling_interval", _intval,
                                DEFAULT_PROFILING_INTERVAL, low=1),
        prediction_time_s=take("system", "prediction_time_us", _num,
                               DEFAULT_PREDICTION_TIME_S * 1e6, low=0) * 1e-6,
        migration_time_s=take("system", "migration_time_us", _num,
                              DEFAULT_MIGRATION_TIME_S * 1e6, low=0) * 1e-6,
    )


def _build(at, section, make, **kw):
    """`make(**kw)`, its ValueError turned into a ConfigError at `at`, the
    line of the section's header."""
    try:
        return make(**kw)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(at, f"[{section}]: {exc}") from None


def _iter_named(sections, headers, family):
    for section, spec in sections.items():
        if section.startswith(family + "."):
            yield section.split(".", 1)[1], spec, headers[section]


def _parse_power(spec, at) -> PowerModel:
    cap = 10e-12
    points = None
    if "effective_capacitance_f" in spec:
        line_no, value = spec["effective_capacitance_f"]
        cap = _num(line_no, "effective_capacitance_f", value)
    if "static_power_points" in spec:
        line_no, value = spec["static_power_points"]
        points = []
        for chunk in value.split(","):
            v, sep, w = chunk.strip().partition(":")
            if not sep:
                raise ConfigError(line_no,
                                  f"static_power_points: expected 'V:W', got {chunk!r}")
            points.append((_num(line_no, "voltage", v), _num(line_no, "watts", w)))
        points = tuple(points)
    if points is None:
        return _build(at, "power", PowerModel, effective_capacitance_f=cap)
    return _build(at, "power", PowerModel, effective_capacitance_f=cap,
                  static_points=points)


def _parse_tech(name, spec, at) -> MemTechnology:
    def need(key):
        if key not in spec:
            raise ConfigError(at, f"[tech.{name}] is missing {key!r}")
        return spec[key]

    line_no, kind = need("kind")
    if kind not in ("sram", "sttram"):
        raise ConfigError(line_no, f"kind must be sram or sttram, got {kind!r}")
    if kind == "sram":
        retention = math.inf
        if "retention_s" in spec:
            line_no2, value = spec["retention_s"]
            if value.lower() not in ("inf", "infinite"):
                raise ConfigError(line_no2, "SRAM retention must be 'infinite'")
    else:
        line_no2, value = need("retention_s")
        retention = _num(line_no2, "retention_s", value)

    def num(key):
        ln, value = need(key)
        return _num(ln, key, value)

    return _build(
        at, f"tech.{name}", MemTechnology,
        name=name, kind=kind, retention_time=retention,
        hit_latency_ns=num("hit_latency_ns"),
        write_latency_ns=num("write_latency_ns"),
        read_energy_j=num("read_energy_nj") * 1e-9,
        write_energy_j=num("write_energy_nj") * 1e-9,
        leakage_w=num("leakage_mw") * 1e-3)


def _parse_core(name, spec, at, technologies, base_dvfs,
                geometry) -> CoreSpec:
    if "data_tech" not in spec:
        raise ConfigError(at, f"[core.{name}] is missing 'data_tech'")
    line_no, value = spec["data_tech"]
    if value not in technologies:
        raise ConfigError(line_no, f"data_tech: unknown technology {value!r}")
    data_tech = technologies[value]

    def num(key, default):
        if key not in spec:
            return default
        line_no, value = spec[key]
        return _num(line_no, key, value)

    cap = num("max_freq_ghz", base_dvfs.max_freq_ghz)
    low = num("min_freq_ghz", base_dvfs.min_freq_ghz)
    operating = num("operating_freq_ghz", cap)
    budget = num("write_cycle_budget", 1)
    k = num("counter_states_k", 4)
    cpi = num("base_cpi", 1.0)
    penalty = num("miss_penalty_ns", 50.0)
    try:
        dvfs = DvfsRange(low, cap, base_dvfs.step_ghz,
                         voltage_for_frequency(base_dvfs, low),
                         voltage_for_frequency(base_dvfs, cap))
        return CoreSpec(
            core_id=name, data_tech=data_tech, geometry=geometry, dvfs=dvfs,
            operating_freq_ghz=operating, write_cycle_budget=int(budget),
            counter_states_k=int(k), base_cpi=cpi, miss_penalty_ns=penalty)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(at, f"[core.{name}]: {exc}") from None


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())
