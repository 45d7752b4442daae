import math
from dataclasses import replace

import pytest

from sttsim import (CacheGeometry, CoreSpec, DvfsRange, MemTechnology, SRAM,
                    STT_10US, STT_26_5US, STT_75US, STT_400US, TECHNOLOGIES,
                    System, access_cycles, default_system, sram_system,
                    voltage_for_frequency)

STT_TECHS = [STT_10US, STT_26_5US, STT_75US, STT_400US]


class TestAccessCycles:
    def test_published_operating_points(self):
        assert access_cycles(2.0, 1.389) == 3
        assert access_cycles(1.2, 0.769) == 1
        assert access_cycles(1.8, 0.601) == 2

    def test_exact_integer_product_is_not_bumped(self):
        assert access_cycles(1.0, 1.0) == 1
        assert access_cycles(2.0, 0.5) == 1
        # 1.8 * 50 lands a hair above 90.0 in floats; must still be 90
        assert access_cycles(1.8, 50.0) == 90

    def test_positive_latency_costs_at_least_one_cycle(self):
        assert access_cycles(0.8, 0.001) == 1
        assert access_cycles(0.8, 0.0) == 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            access_cycles(0.0, 1.0)
        with pytest.raises(ValueError):
            access_cycles(-1.0, 1.0)
        with pytest.raises(ValueError):
            access_cycles(1.0, -0.1)

    def test_monotone_in_both_arguments(self):
        freqs = [0.8 + 0.1 * i for i in range(13)]
        lats = [0.1 * i for i in range(15)]
        for f1, f2 in zip(freqs, freqs[1:]):
            for l1, l2 in zip(lats, lats[1:]):
                assert access_cycles(f1, l1) <= access_cycles(f2, l1)
                assert access_cycles(f1, l1) <= access_cycles(f1, l2)

    def test_reads_are_single_cycle_across_the_grid(self):
        for tech in STT_TECHS + [SRAM]:
            for freq in DvfsRange().grid():
                assert access_cycles(freq, tech.hit_latency_ns) == 1


class TestVoltage:
    def test_endpoints_and_midpoint(self):
        dvfs = DvfsRange()
        assert voltage_for_frequency(dvfs, 0.8) == 0.90
        assert voltage_for_frequency(dvfs, 2.0) == 1.35
        assert voltage_for_frequency(dvfs, 1.4) == pytest.approx(1.125, abs=1e-12)

    def test_monotone_over_grid(self):
        dvfs = DvfsRange()
        volts = [voltage_for_frequency(dvfs, f) for f in dvfs.grid()]
        assert volts == sorted(volts)

    def test_off_grid_rejected(self):
        dvfs = DvfsRange()
        for bad in (0.9, 2.2, 0.6, 1.3001):
            with pytest.raises(ValueError):
                voltage_for_frequency(dvfs, bad)


class TestTypes:
    def test_default_geometry_has_128_sets(self):
        assert CacheGeometry().sets == 128

    def test_geometry_requires_powers_of_two(self):
        with pytest.raises(ValueError):
            CacheGeometry(capacity_bytes=3000)
        with pytest.raises(ValueError):
            CacheGeometry(line_bytes=48)
        with pytest.raises(ValueError):
            CacheGeometry(ways=3)

    def test_volatility_follows_retention(self):
        assert [t.is_volatile for t in [SRAM] + STT_TECHS] == [False] + [True] * 4
        assert not replace(STT_10US, retention_time=math.inf).is_volatile
        assert replace(SRAM, retention_time=1e-3).is_volatile

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            MemTechnology("bad", 1e-5, 0.4, 0.6, -1e-12, 1e-12, 0.01)

    def test_dvfs_span_must_be_step_multiple(self):
        with pytest.raises(ValueError):
            DvfsRange(0.8, 1.9, 0.2, 0.9, 1.35)

    def test_grid_contents(self):
        assert DvfsRange().grid() == [0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0]

    def test_write_latency_grows_with_retention(self):
        lats = [t.write_latency_ns for t in STT_TECHS]
        assert lats == sorted(lats) and len(set(lats)) == len(lats)


class TestValidation:
    def test_default_cores_are_clean(self):
        for core in default_system().cores:
            assert core.read_cycles(core.freq_cap_ghz) == 1
            assert core.operating_freq_ghz == core.freq_cap_ghz

    def test_default_write_cycle_budgets(self):
        budgets = {c.core_id: c.write_cycles(c.freq_cap_ghz)
                   for c in default_system().cores}
        assert budgets == {"core1": 1, "core2": 1, "core3": 2, "core4": 3}

    def test_overclocked_cap_breaks_the_budget(self):
        dvfs = DvfsRange(0.8, 1.8, 0.2, 0.9, 1.275)
        spec = CoreSpec(core_id="x", data_tech=STT_10US, dvfs=dvfs)
        assert spec.write_cycles(spec.freq_cap_ghz) == 2

    def test_sram_core_is_single_cycle_at_any_cap(self):
        core = sram_system().cores[0]
        cap = core.freq_cap_ghz
        assert (core.read_cycles(cap), core.write_cycles(cap)) == (1, 1)

    def test_off_grid_operating_freq_flagged(self):
        base = default_system().core("core1")
        with pytest.raises(ValueError, match="off the DVFS grid"):
            CoreSpec(core_id="x", data_tech=base.data_tech, dvfs=base.dvfs,
                     operating_freq_ghz=1.5)

    @pytest.mark.parametrize("knob, value", [
        ("counter_states_k", 1), ("counter_states_k", 2.5),
        ("counter_states_k", math.inf), ("base_cpi", 0.0),
        ("base_cpi", math.nan), ("miss_penalty_ns", -5.0),
        ("miss_penalty_ns", math.inf)])
    def test_core_knobs_rejected(self, knob, value):
        with pytest.raises(ValueError, match=knob):
            CoreSpec(core_id="x", data_tech=STT_10US, **{knob: value})

    @pytest.mark.parametrize("field, value", [
        ("hit_latency_ns", math.nan), ("write_latency_ns", math.inf),
        ("read_energy_j", math.nan), ("write_energy_j", math.inf),
        ("leakage_w", math.nan), ("retention_time", math.nan),
        ("retention_time", 0.0)])
    def test_technology_values_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError):
            replace(STT_10US, **{field: value})

    @pytest.mark.parametrize("volts", [(-5.0, 1.35), (2.0, 1.35), (0.0, 1.35),
                                       (0.9, math.inf), (math.nan, 1.35)])
    def test_dvfs_voltages_out_of_range_rejected(self, volts):
        with pytest.raises(ValueError, match="voltage"):
            DvfsRange(0.8, 2.0, 0.2, *volts)

    @pytest.mark.parametrize("freqs", [(math.nan, 2.0, 0.2), (0.8, math.inf, 0.2),
                                       (0.8, 2.0, math.nan)])
    def test_dvfs_frequencies_out_of_range_rejected(self, freqs):
        with pytest.raises(ValueError):
            DvfsRange(*freqs)


class TestSystem:
    def test_duplicate_labels_rejected(self):
        core = default_system().core("core1")
        twin = CoreSpec(core_id="core1", data_tech=core.data_tech, dvfs=core.dvfs,
                        operating_freq_ghz=core.operating_freq_ghz)
        with pytest.raises(ValueError):
            System(cores=(core, twin))

    def test_default_roles(self):
        sys_ = default_system()
        assert sys_.profiling_core == "core1"
        assert sys_.base_core == "core3"

    def test_speed_order(self):
        assert default_system().speed_order() == ["core3", "core4", "core1", "core2"]

    def test_cluster_replication(self):
        assert default_system(cluster_count=4).cluster_count == 4
        with pytest.raises(ValueError):
            default_system(cluster_count=0)

    def test_published_device_rows(self):
        assert TECHNOLOGIES["sram"].leakage_w == pytest.approx(50.328e-3)
        assert TECHNOLOGIES["stt_10us"].write_energy_j == pytest.approx(0.026e-9)
        assert TECHNOLOGIES["stt_400us"].write_latency_ns == pytest.approx(1.389)
        assert math.isinf(SRAM.retention_time)
