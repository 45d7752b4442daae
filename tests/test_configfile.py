import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sttsim import ConfigError, PowerModel, load_config, parse_config
from sttsim.configfile import _KEYS, default_config

FULL = """
# a complete four-core definition
[dvfs]
min_freq_ghz = 0.8
max_freq_ghz = 2.0
step_ghz = 0.2
min_voltage_v = 0.9
max_voltage_v = 1.35

[cache]
capacity_bytes = 32768
line_bytes = 64
ways = 4

[power]
effective_capacitance_f = 5e-12
static_power_points = 0.9:0.35, 1.35:0.50

[tech.fast_stt]
retention_s = 10e-6
hit_latency_ns = 0.464
write_latency_ns = 0.601
read_energy_nj = 0.003
write_energy_nj = 0.026
leakage_mw = 13.1448

[core.1]
data_tech = fast_stt
max_freq_ghz = 1.6

[core.2]
data_tech = stt_400us
max_freq_ghz = 2.0
operating_freq_ghz = 1.4

[system]
cluster_count = 2
profiling_core = core1
base_core = core2
history_capacity = 64
profiling_interval = 250000
prediction_time_us = 3.23
migration_time_us = 7.94
"""


class TestParsing:
    def test_defaults_without_file(self):
        cfg = default_config()
        assert [c.core_id for c in cfg.system.cores] == [
            "core1", "core2", "core3", "core4"]
        assert cfg.profiling_interval == 3_000_000
        assert cfg.prediction_time_s == pytest.approx(3.23e-6)
        assert cfg.migration_time_s == pytest.approx(7.94e-6)
        assert cfg.history_capacity == 120

    def test_full_file(self):
        cfg = parse_config(FULL)
        sys_ = cfg.system
        assert sys_.labels() == ["core1", "core2"]
        assert sys_.cluster_count == 2
        core1 = sys_.core("core1")
        assert core1.data_tech.name == "fast_stt"
        assert core1.freq_cap_ghz == 1.6
        assert core1.operating_freq_ghz == 1.6  # defaults to the cap
        assert sys_.core("core2").operating_freq_ghz == 1.4
        assert cfg.power.effective_capacitance_f == 5e-12
        assert cfg.power.static_power_w(0.9) == pytest.approx(0.35)
        assert cfg.history_capacity == 64

    def test_builtin_technologies_referencable(self):
        cfg = parse_config("[core.1]\ndata_tech = stt_75us\n"
                           "max_freq_ghz = 2.0\n")
        assert cfg.system.cores[0].data_tech.name == "stt_75us"

    def test_per_core_voltage_follows_global_line(self):
        cfg = parse_config(FULL)
        dvfs = cfg.system.core("core1").dvfs
        assert dvfs.max_voltage_v == pytest.approx(1.2)  # 1.6 GHz on the line

    def test_sections_only_tune_default_system(self):
        cfg = parse_config("[system]\ncluster_count = 4\n")
        assert len(cfg.system.cores) == 4
        assert cfg.system.cluster_count == 4

    def test_empty_file_is_the_default_config(self):
        cfg, default = parse_config(""), default_config()
        assert cfg.system == default.system
        assert cfg.power == default.power
        assert cfg == default

    def test_unset_capacitance_takes_the_power_model_default(self):
        cfg = parse_config("[power]\nstatic_power_points = 0.9:0.3\n")
        assert cfg.power.effective_capacitance_f == PowerModel().effective_capacitance_f

    def test_sections_reach_the_builtin_cores(self):
        cfg = parse_config("[dvfs]\nstep_ghz = 0.1\nmax_voltage_v = 1.5\n"
                           "[cache]\nways = 2\n"
                           "[tech.stt_10us]\nretention_s = 20e-6\n")
        default = default_config().system
        for core in cfg.system.cores:
            assert core.dvfs.step_ghz == 0.1
            assert core.geometry.ways == 2
            assert core.data_tech.name == default.core(core.core_id).data_tech.name
        core1 = cfg.system.core("core1")
        assert core1.data_tech.retention_time == 20e-6
        assert core1.data_tech.write_latency_ns == 0.601  # the rest of the row stays
        assert core1.dvfs.max_voltage_v == pytest.approx(1.3)  # 1.6 GHz on the line
        assert cfg.system.core("core3").data_tech == default.core("core3").data_tech


class TestErrors:
    def test_unknown_key_carries_line_number(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[dvfs]\nmin_freq_ghz = 0.8\nbogus_key = 1\n")
        assert err.value.line_no == 3
        assert "bogus_key" in str(err.value)

    def test_unknown_section(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[wat]\nx = 1\n")
        assert err.value.line_no == 1

    def test_duplicate_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[dvfs]\nstep_ghz = 0.2\nstep_ghz = 0.1\n")
        assert err.value.line_no == 3

    def test_key_before_section(self):
        with pytest.raises(ConfigError) as err:
            parse_config("min_freq_ghz = 0.8\n")
        assert err.value.line_no == 1

    def test_bad_number(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[dvfs]\nmin_freq_ghz = quick\n")
        assert "expected a number" in str(err.value)

    def test_missing_equals(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[dvfs]\nmin_freq_ghz 0.8\n")
        assert err.value.line_no == 2

    def test_unknown_tech_reference(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[core.1]\ndata_tech = nonexistent\n")
        assert "unknown technology" in str(err.value)

    def test_tech_missing_field(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[tech.t]\nretention_s = 1e-5\n")
        assert "missing" in str(err.value)

    def test_a_new_row_sets_its_retention(self):
        # Volatility follows the retention alone: a new SRAM-like row says
        # `retention_s = infinite`, and leaving it out is an error.
        rest = ("hit_latency_ns = 0.45\nwrite_latency_ns = 0.3\n"
                "read_energy_nj = 0.007\nwrite_energy_nj = 0.006\n"
                "leakage_mw = 50.0\n[core.1]\ndata_tech = s\n")
        cfg = parse_config("[tech.s]\nretention_s = infinite\n" + rest)
        assert not cfg.system.core("core1").data_tech.is_volatile
        with pytest.raises(ConfigError, match="missing 'retention_s'"):
            parse_config("[tech.s]\n" + rest)

    def test_unnamed_core_section(self):
        with pytest.raises(ConfigError):
            parse_config("[core]\ndata_tech = sram\n")

    @pytest.mark.parametrize("text, line_no", [
        ("[dvfs]\nmin_freq_ghz = 3.0\n", 1),
        ("\n[dvfs]\nmax_freq_ghz = 1.8\n", 2),  # off a built-in core's cap
        ("[cache]\nways = 3\n", 1),
        ("\n[system]\ncluster_count = 0\n", 2),
        ("[core.1]\ndata_tech = sram\ncounter_states_k = 1e999\n", 1),
        ("[core.1]\ndata_tech = sram\ncounter_states_k = 0\n", 1),
        ("[core.1]\ndata_tech = sram\ncounter_states_k = 1\n", 1),
        ("\n[core.2]\ndata_tech = sram\nbase_cpi = -1\n", 2),
        ("[core.1]\ndata_tech = sram\nmiss_penalty_ns = -5\n", 1),
        ("[core.1]\ndata_tech = sram\noperating_freq_ghz = 1.1\n", 1),
        ("[core.1]\ndata_tech = sram\noperating_freq_ghz = x\n", 3),
        ("[core.1]\ndata_tech = sram\n[core.core1]\ndata_tech = sram\n", 3),
        ("[system]\nhistory_capacity = -1\n", 2),
        ("[system]\ncluster_count = 1\nprofiling_interval = 0\n", 3),
        ("[system]\nprediction_time_us = -0.5\n", 2),
        ("[system]\nmigration_time_us = -1e-3\n", 2)])
    def test_every_error_names_a_line(self, text, line_no):
        # A value the section rejects as a whole names the section's header.
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.line_no == line_no

    @pytest.mark.parametrize("text, match", [
        ("[power]\neffective_capacitance_f = nan\n", "capacitance"),
        ("[power]\neffective_capacitance_f = inf\n", "capacitance"),
        ("[power]\nstatic_power_points = 0.9:nan\n", "static power"),
        ("[power]\nstatic_power_points = inf:0.5\n", "static power"),
        ("[tech.stt_10us]\nretention_s = nan\n", "retention"),
        ("[tech.stt_10us]\nhit_latency_ns = inf\n", "latencies"),
        ("[tech.stt_10us]\nwrite_latency_ns = nan\n", "latencies"),
        ("[tech.stt_10us]\nwrite_energy_nj = inf\n", "energies"),
        ("[tech.stt_10us]\nleakage_mw = nan\n", "leakage"),
        ("[dvfs]\nmax_freq_ghz = inf\n", "frequencies"),
        ("[dvfs]\nstep_ghz = nan\n", "frequencies"),
        ("[dvfs]\nmin_voltage_v = -5\n", "voltages"),
        ("[dvfs]\nmin_voltage_v = 2\n", "voltages"),
        ("[dvfs]\nmax_voltage_v = inf\n", "voltages"),
        ("[dvfs]\nmax_voltage_v = nan\n", "voltages")])
    def test_a_value_out_of_its_range_names_file_and_line(self, tmp_path,
                                                           text, match):
        path = tmp_path / "bad.cfg"
        path.write_text("# header\n" + text)
        with pytest.raises(ConfigError, match=match) as err:
            load_config(path)
        assert err.value.line_no == 2 and err.value.path == path
        assert str(err.value).startswith(f"{path}: line 2: ")

    def test_infinite_retention_stays_legal(self):
        cfg = parse_config("[tech.stt_10us]\nretention_s = inf\n")
        assert not cfg.system.core("core1").data_tech.is_volatile

    @pytest.mark.parametrize("text, line_no", [
        ("[core.1]\ndata_tech = stt_10us\ninstr_tech = stt_400us\n", 3),
        ("[system]\ncluster_count = 2\ninstr_tech_scale = 1.5\n", 3)])
    def test_instruction_cache_keys_are_unknown(self, text, line_no):
        with pytest.raises(ConfigError, match="unknown key 'instr_tech") as err:
            parse_config(text)
        assert err.value.line_no == line_no

    def test_write_cycle_budget_is_unknown(self):
        text = "[core.1]\ndata_tech = stt_10us\nwrite_cycle_budget = 1\n"
        with pytest.raises(ConfigError, match="unknown key 'write_cycle_budget'") as err:
            parse_config(text)
        assert err.value.line_no == 3


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_lists_exactly_the_parsed_keys():
    """Each row of the README's config-key table names the keys the parser
    accepts for that section: the backticked words outside parentheses."""
    documented = {}
    for row in README.read_text().splitlines():
        cells = row.split("|")
        if len(cells) == 4 and cells[1].strip().startswith("`["):
            family = re.match(r"`\[(\w+)", cells[1].strip()).group(1)
            documented[family] = set(re.findall(r"`(\w+)`",
                                                re.sub(r"\([^)]*\)", "", cells[2])))
    assert documented == {family: set(keys) for family, keys in _KEYS.items()}


TUNING = """
[cache]
capacity_bytes = 16384
ways = 2

[system]
cluster_count = 2
profiling_core = core2
prediction_time_us = 1.5
"""
LEGACY = FULL.replace("operating_freq_ghz = 1.4\n",
                      "operating_freq_ghz = 1.4\nwrite_cycle_budget = 3\n"
                      "instr_tech = stt_400us\n")
LEGACY = LEGACY.replace("[system]\n", "[system]\ninstr_tech_scale = 2.0\n")
VALUES = st.one_of(st.sampled_from(
    ["0", "1", "-1", "0.5", "1e999", "-inf", "nan", "infinite", "x", "",
     "inf", "+inf", "Infinity", "NaN", "-nan", "0.9:nan", "inf:0.5",
     "sram", "stt_10us", "fast_stt", "core1", "core2", "0.9:0.35", "1:x",
     "[core.1]", "[core.core2]", "[tech.t]", "[dvfs]", "[", "=", "# c",
     "instr_tech = stt_400us", "instr_tech_scale = 2.0", "data_tech"]),
    st.text(max_size=8))


@st.composite
def mutated_configs(draw):
    """A valid config text, or one that still sets a deleted key, with a few
    lines dropped, repeated, swapped, inserted or changed."""
    lines = draw(st.sampled_from([FULL, TUNING, LEGACY])).split("\n")
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(["drop", "repeat", "swap", "insert", "value"]))
        if op == "insert" or not lines:
            lines.insert(i, draw(VALUES))
            continue
        i = min(i, len(lines) - 1)
        if op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            key, eq, _ = lines[i].partition("=")
            lines[i] = key + eq + " " + draw(VALUES) if eq else draw(VALUES)
    return "\n".join(lines)


def numbers(cfg):
    """Every number a parsed config holds, by name, except retention times,
    which may be infinite."""
    out = {"effective_capacitance_f": cfg.power.effective_capacitance_f,
           "prediction_time_s": cfg.prediction_time_s,
           "migration_time_s": cfg.migration_time_s}
    for v, w in cfg.power.static_points:
        out[f"static point {v}"] = v
        out[f"static power at {v}"] = w
    for core in cfg.system.cores:
        tech = core.data_tech
        for name, value in {**vars(core.dvfs), **vars(tech)}.items():
            if isinstance(value, float) and name != "retention_time":
                out[f"{core.core_id}.{name}"] = value
        out[f"{core.core_id}.base_cpi"] = core.base_cpi
        out[f"{core.core_id}.miss_penalty_ns"] = core.miss_penalty_ns
    return out


class TestFuzz:
    """parse_config raises only ConfigError, naming a line of the text, and
    what it accepts holds only finite numbers."""

    @settings(max_examples=500, deadline=None)
    @given(mutated_configs())
    def test_mutated_configs(self, text):
        try:
            cfg = parse_config(text)
        except ConfigError as exc:
            assert exc.line_no is not None, exc
            assert 1 <= exc.line_no <= len(text.split("\n"))
        else:
            assert all(map(math.isfinite, numbers(cfg).values())), numbers(cfg)
            assert all(c.data_tech.retention_time > 0 for c in cfg.system.cores)
