"""Experiment configuration files.

Line-oriented `key = value` pairs grouped under bracketed section headers:

    [dvfs] [cache] [power] [system] [tech.<name>] [core.<id>]

Each section's keys map onto the fields of one object (`_KEYS`); a key the
file leaves out keeps its class's default. Every error carries a line number:
the offending line's, or for a value the object rejects as a whole, its
section header's. When any [core.*] section is present the file defines the
whole core set; otherwise the built-in cores (`DEFAULT_CORES`) are built by
the same path, so every other section tunes them. See the README for the full
key reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .config import (DEFAULT_CORES, CacheGeometry, ConfigError, DvfsRange,
                     MemTechnology, System, TECHNOLOGIES, make_core, read_input)
from .engine import PowerModel
from .scheduler import (DEFAULT_HISTORY_CAPACITY, DEFAULT_MIGRATION_TIME_S,
                        DEFAULT_PREDICTION_TIME_S, DEFAULT_PROFILING_INTERVAL)


@dataclass
class ExperimentConfig:
    system: System
    power: PowerModel
    history_capacity: int = DEFAULT_HISTORY_CAPACITY
    profiling_interval: int = DEFAULT_PROFILING_INTERVAL
    prediction_time_s: float = DEFAULT_PREDICTION_TIME_S
    migration_time_s: float = DEFAULT_MIGRATION_TIME_S
    # Every technology row by name: the built-ins with the file's [tech.*].
    technologies: dict[str, MemTechnology] = field(
        default_factory=lambda: dict(TECHNOLOGIES))


def default_config() -> ExperimentConfig:
    """The built-in cores and defaults: the configuration of an empty file."""
    return parse_config("")


def default_system() -> System:
    """The four-core reference system (`DEFAULT_CORES`)."""
    return default_config().system


# Value converters: each turns a value's text into the field's value in the
# field's unit, or raises ValueError, which `parse_config` reports at the line.

def _number(text) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None


def _integer(text) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _count(text) -> int:
    number = _integer(text)
    if number < 1:
        raise ValueError("must be an integer >= 1")
    return number


def _micros(text) -> float:
    number = _number(text)
    if not 0 <= number < math.inf:
        raise ValueError("must be a finite number >= 0")
    return number * 1e-6


def _retention(text) -> float:
    return math.inf if text.lower() == "infinite" else _number(text)


def _points(text) -> tuple[tuple[float, float], ...]:
    points = []
    for chunk in text.split(","):
        v, sep, w = chunk.strip().partition(":")
        if not sep:
            raise ValueError(f"expected 'V:W', got {chunk!r}")
        points.append((_number(v), _number(w)))
    return tuple(points)


def _same(convert, *keys):
    return {key: (key, convert) for key in keys}


# Each section's keys: key -> (field, converter). [dvfs] builds the global
# DVFS line, [core.*] the arguments of `make_core`, and [system] the System
# plus the runtime fields of ExperimentConfig.
_KEYS = {
    "dvfs": _same(_number, "min_freq_ghz", "max_freq_ghz", "step_ghz",
                  "min_voltage_v", "max_voltage_v"),
    "cache": _same(_integer, "capacity_bytes", "line_bytes", "ways"),
    "power": {"effective_capacitance_f": ("effective_capacitance_f", _number),
              "static_power_points": ("static_points", _points)},
    "system": {**_same(_integer, "cluster_count"),
               **_same(str, "profiling_core", "base_core"),
               **_same(_count, "history_capacity", "profiling_interval"),
               "prediction_time_us": ("prediction_time_s", _micros),
               "migration_time_us": ("migration_time_s", _micros)},
    "tech": {"retention_s": ("retention_time", _retention),
             **_same(_number, "hit_latency_ns", "write_latency_ns"),
             "read_energy_nj": ("read_energy_j", lambda text: _number(text) * 1e-9),
             "write_energy_nj": ("write_energy_j", lambda text: _number(text) * 1e-9),
             "leakage_mw": ("leakage_w", lambda text: _number(text) * 1e-3)},
    "core": {**_same(str, "data_tech"),
             **_same(_number, "min_freq_ghz", "max_freq_ghz",
                     "operating_freq_ghz", "counter_states_k", "base_cpi",
                     "miss_penalty_ns")},
}


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
    allowed = _KEYS.get(family)
    if allowed is None:
        raise ConfigError(line_no, f"unknown section [{section}]")
    if family in ("tech", "core") and "." not in section:
        raise ConfigError(line_no, f"[{family}] sections need a name: [{family}.x]")
    if key is not None and key not in allowed:
        raise ConfigError(
            line_no, f"unknown key {key!r} in [{section}] "
            f"(expected one of: {', '.join(sorted(allowed))})")


def parse_config(text: str) -> ExperimentConfig:
    """The configuration a text sets; an error is a ConfigError naming a line."""
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

    def fields(section, family=None):
        """The fields set by `section`'s keys, converted."""
        table = _KEYS[family or section]
        out = {}
        for key, (line_no, value) in sections.get(section, {}).items():
            field, convert = table[key]
            try:
                out[field] = convert(value)
            except ValueError as exc:
                raise ConfigError(line_no, f"{key}: {exc}") from None
        return out

    line = _build(headers.get("dvfs"), "[dvfs]", DvfsRange, **fields("dvfs"))
    geometry = _build(headers.get("cache"), "[cache]", CacheGeometry, **fields("cache"))
    power = _build(headers.get("power"), "[power]", PowerModel, **fields("power"))

    technologies = dict(TECHNOLOGIES)
    for name, at in _named(headers, "tech"):
        technologies[name] = _parse_tech(name, fields(f"tech.{name}", "tech"), at)

    cores = []  # (core id, make_core arguments, line and label for its errors)
    for name, at in _named(headers, "core"):
        spec = fields(f"core.{name}", "core")
        tech = spec.get("data_tech")
        if tech is None:
            raise ConfigError(at, f"[core.{name}] is missing 'data_tech'")
        if tech not in technologies:
            raise ConfigError(sections[f"core.{name}"]["data_tech"][0],
                              f"data_tech: unknown technology {tech!r}")
        spec["data_tech"] = technologies[tech]
        cores.append((name, spec, at, f"[core.{name}]"))
    if not cores:
        # Only [dvfs] can leave a built-in core unbuildable (its cap off the line).
        cores = [(cid, {"data_tech": technologies[tech], "max_freq_ghz": cap},
                  headers.get("dvfs"), f"[dvfs] (built-in {cid})")
                 for cid, tech, cap in DEFAULT_CORES]
    built = tuple(_build(at, where, make_core, name, line=line, geometry=geometry, **spec)
                  for name, spec, at, where in cores)

    settings = fields("system")
    runtime = {f: settings.pop(f) for f in list(settings)
               if f in ExperimentConfig.__dataclass_fields__}
    system = _build(headers.get("system"), "[system]", System, cores=built, **settings)
    return ExperimentConfig(system=system, power=power,
                            technologies=technologies, **runtime)


def _build(at, where, make, *args, **kw):
    """`make(*args, **kw)`, its ValueError turned into a ConfigError at `at`,
    the line of the section's header, prefixed by `where`."""
    try:
        return make(*args, **kw)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(at, f"{where}: {exc}") from None


def _named(headers, family):
    """(name, header line) of each [family.name] section, in file order."""
    for section, at in headers.items():
        if section.startswith(family + "."):
            yield section.split(".", 1)[1], at


def _parse_tech(name, fields, at) -> MemTechnology:
    """A built-in row with the given fields overridden, or a new row that
    sets every key."""
    if name in TECHNOLOGIES:
        return _build(at, f"[tech.{name}]", replace, TECHNOLOGIES[name], **fields)
    for key, (field, _) in _KEYS["tech"].items():
        if field not in fields:
            raise ConfigError(at, f"[tech.{name}] is missing {key!r}")
    return _build(at, f"[tech.{name}]", MemTechnology, name=name, **fields)


def load_config(path) -> ExperimentConfig:
    """Parse a config file; an error names the file and the line."""
    return read_input(path, lambda fh: parse_config(fh.read()))
