import random
from dataclasses import replace

import pytest

from sttsim import (CacheGeometry, CacheState, CacheStats, HIT, MISS,
                    MISS_EXPIRATION, MISS_NONE, MISS_OTHER, STT_10US,
                    SRAM, default_system, snapshot_stats)
from reference import ReferenceLru

US = 1000.0  # ns per microsecond


@pytest.fixture
def core1(system):
    return system.core("core1")


def toy_core(ways=1, sets=1, tech=STT_10US):
    base = default_system().core("core1")
    geo = CacheGeometry(capacity_bytes=64 * ways * sets, line_bytes=64, ways=ways)
    return replace(base, core_id="toy", geometry=geo, data_tech=tech)


class TestRetention:
    def test_counter_states_follow_block_age(self, core1):
        c = CacheState(core1, 1.6)
        c.access(0x40, "R", 0.0)
        assert c.advance_retention(4.9 * US) == []
        set_idx, way, _ = c.valid_blocks()[0]
        assert c.block_counter(set_idx, way) == 1  # floor(4.9 / 2.5)

    def test_invalidated_at_exact_lifetime(self, core1):
        c = CacheState(core1, 1.6)
        c.access(0x40, "R", 0.0)
        expired = c.advance_retention(7.5 * US)  # (k-1)/k x 10us
        assert len(expired) == 1
        assert expired[0].age_ns == c.lifetime_ns == (10.0 * US / 4) * 3
        assert c.valid_blocks() == []

    def test_infinite_retention_never_expires(self, system):
        core = replace(system.core("core1"), data_tech=SRAM)
        c = CacheState(core, 1.6)
        c.access(0x40, "R", 0.0)
        assert c.advance_retention(1e12) == []
        assert c.valid_blocks() != []

    def test_time_regression_rejected(self, core1):
        c = CacheState(core1, 1.6)
        c.advance_retention(100.0)
        with pytest.raises(ValueError):
            c.advance_retention(99.0)
        with pytest.raises(ValueError):
            c.access(0x40, "R", 50.0)

    def test_dirty_block_written_back_on_expiry(self, core1):
        c = CacheState(core1, 1.6)
        c.access(0x40, "W", 0.0)
        expired = c.advance_retention(8 * US)
        assert expired[0].was_dirty
        assert c.stats.early_writebacks == 1
        assert c.stats.bus_write_requests == 1
        assert c.stats.mem_busy_write_cycles == c.penalty_cycles

    def test_clean_block_expires_without_writeback(self, core1):
        c = CacheState(core1, 1.6)
        c.access(0x40, "R", 0.0)
        expired = c.advance_retention(8 * US)
        assert not expired[0].was_dirty
        assert c.stats.early_writebacks == 0

    def test_write_restores_full_retention(self, core1):
        c = CacheState(core1, 1.6)
        c.access(0x40, "W", 0.0)
        c.access(0x40, "W", 7.0 * US)  # refresh just before expiry
        assert c.advance_retention(14.0 * US) == []  # age 7us from rewrite
        out = c.access(0x40, "R", 14.2 * US)
        assert out.kind == HIT

    def test_no_settled_block_outlives_its_lifetime(self, core1):
        # After settling the counters, every valid block is younger than the
        # monitor lifetime, so no block's age ever reaches the retention time.
        rng = random.Random(13)
        c = CacheState(core1, 1.6)
        now = 0.0
        for _ in range(300):
            now += rng.uniform(10.0, 4000.0)
            c.access(64 * rng.randrange(96), "W" if rng.random() < 0.4 else "R",
                     now)
            c.advance_retention(now)
            for si, _way, tag in c.valid_blocks():
                _expiry, _dirty, fill_ns = c._sets[si][tag]
                age = now - fill_ns
                assert age < c.lifetime_ns < c.tech.retention_time * 1e9

    def test_read_hit_does_not_refresh(self, core1):
        c = CacheState(core1, 1.6)
        c.access(0x40, "R", 0.0)
        assert c.access(0x40, "R", 5.0 * US).kind == HIT
        out = c.access(0x40, "R", 8.0 * US)  # age from original fill
        assert out.kind == MISS and out.miss_class == MISS_EXPIRATION


class TestAccess:
    def test_expired_reference_is_an_expiration_miss(self, core1):
        c = CacheState(core1, 1.6)
        c.access(0x40, "R", 0.0)
        out = c.access(0x40, "R", 12.0 * US)
        assert (out.kind, out.miss_class) == (MISS, MISS_EXPIRATION)
        assert c.stats.expiration_misses == 1

    def test_cold_miss_is_other(self, core1):
        c = CacheState(core1, 1.6)
        out = c.access(0xBEEF00, "R", 0.0)
        assert (out.kind, out.miss_class) == (MISS, MISS_OTHER)

    def test_hit_has_no_miss_class(self, core1):
        c = CacheState(core1, 1.6)
        c.access(0x40, "R", 0.0)
        assert c.access(0x40, "R", 10.0).miss_class == MISS_NONE

    def test_conflict_eviction_is_other_not_expiration(self):
        # One-set, one-way toy cache: B evicts A, so re-reading A misses in
        # the shadow too.
        c = CacheState(toy_core(ways=1))
        c.access(0x0, "R", 0.0)
        c.access(0x40, "R", 10.0)  # same set, evicts A
        out = c.access(0x0, "R", 20.0)
        assert (out.kind, out.miss_class) == (MISS, MISS_OTHER)
        assert c.stats.expiration_misses == 0
        assert c.stats.evictions == 2  # B evicted A, then A evicted B

    def test_lru_victim_selection(self):
        c = CacheState(toy_core(ways=4))
        for i in range(4):
            c.access(i * 64, "R", float(i))
        c.access(0, "R", 10.0)  # block 0 becomes MRU
        c.access(4 * 64, "R", 11.0)  # evicts block 1, the LRU
        tags = {t for _, _, t in c.valid_blocks()}
        assert 1 not in tags and 0 in tags

    def test_invalid_way_preferred_over_lru(self, core1):
        c = CacheState(core1, 1.6)
        c.access(0x40, "R", 0.0)
        c.advance_retention(8 * US)  # way 0 invalidated
        c.access(0x40 + 128 * 64, "R", 8.1 * US)  # same set, new tag
        assert c.stats.evictions == 0

    def test_dirty_eviction_writes_back(self):
        c = CacheState(toy_core(ways=1))
        c.access(0x0, "W", 0.0)
        c.access(0x40, "R", 10.0)
        assert c.stats.writebacks == 1
        assert c.stats.bus_write_requests == 1

    def test_write_miss_allocates_dirty(self, core1):
        c = CacheState(core1, 1.6)
        out = c.access(0x40, "W", 0.0)
        assert out.kind == MISS
        c.advance_retention(8 * US)
        assert c.stats.early_writebacks == 1  # the allocated block was dirty

    def test_stall_cycles(self, system):
        core4 = system.core("core4")
        c = CacheState(core4, 2.0)
        assert c.access(0x40, "W", 0.0).stall_cycles == 3 + c.penalty_cycles
        assert c.access(0x40, "W", 10.0).stall_cycles == 3
        assert c.access(0x40, "R", 20.0).stall_cycles == 1

    def test_fill_counters(self, core1):
        c = CacheState(core1, 1.6)
        c.access(0x40, "R", 0.0)
        assert c.stats.mem_read_hits == 1
        assert c.stats.bus_read_requests == 1
        assert c.stats.mem_busy_read_cycles == c.penalty_cycles


class TestClassificationSoundness:
    def _replay(self, seed, tech=STT_10US, events=300):
        """Cross-check every miss classification against an independent
        infinite-retention LRU model."""
        rng = random.Random(seed)
        core = toy_core(ways=4, sets=8, tech=tech)
        c = CacheState(core, 1.6)
        ref = ReferenceLru(sets=core.geometry.sets, ways=4, line_bytes=64)
        now = 0.0
        hits = misses = exp = 0
        for _ in range(events):
            addr = 64 * rng.randrange(64)
            op = "W" if rng.random() < 0.3 else "R"
            now += rng.uniform(10.0, 2500.0)
            out = c.access(addr, op, now)
            ref_hit = ref.access(addr)
            if out.kind == HIT:
                hits += 1
                assert ref_hit, "a real hit implies an infinite-retention hit"
            else:
                misses += 1
                exp += out.miss_class == MISS_EXPIRATION
                assert (out.miss_class == MISS_EXPIRATION) == ref_hit
        st = c.stats
        assert st.hits == hits and st.misses == misses
        assert st.expiration_misses == exp
        assert st.shadow_misses == ref.misses
        return st

    def test_against_reference_oracle(self):
        for seed in range(25):
            self._replay(seed)

    def test_some_expirations_actually_occur(self):
        st = self._replay(99, events=600)
        assert st.expiration_misses > 0

    def test_infinite_retention_has_no_expirations(self):
        st = self._replay(7, tech=SRAM)
        assert st.expiration_misses == 0

    def test_determinism(self):
        assert self._replay(3) == self._replay(3)


class TestSnapshots:
    def test_delta_subtracts_counters(self, core1):
        c = CacheState(core1, 1.6)
        for i in range(10):
            c.access(0x40, "R", float(i))
        snap = c.snapshot()
        for i in range(15):
            c.access(0x40, "R", 100.0 + i)
        delta = snapshot_stats(c.stats, snap)
        assert delta.read_hits == 15
        assert snap.read_hits == 9  # snapshot unchanged

    def test_empty_window_is_zero(self, core1):
        c = CacheState(core1, 1.6)
        c.access(0x40, "R", 0.0)
        snap = c.snapshot()
        assert snapshot_stats(c.stats, snap) == CacheStats()

    def test_full_run_equals_cumulative(self, core1):
        c = CacheState(core1, 1.6)
        zero = CacheStats()
        for i in range(20):
            c.access(64 * i, "W", float(i))
        assert snapshot_stats(c.stats, zero) == c.stats

    def test_mismatched_snapshot_rejected(self, core1):
        c = CacheState(core1, 1.6)
        c.access(0x40, "R", 0.0)
        later = c.snapshot()
        with pytest.raises(ValueError):
            snapshot_stats(CacheStats(), later)
        with pytest.raises(ValueError):
            snapshot_stats(c.stats, object())

    def test_totals_are_consistent(self, core1):
        c = CacheState(core1, 1.6)
        rng = random.Random(5)
        now = 0.0
        for _ in range(400):
            now += rng.uniform(1.0, 4000.0)
            c.access(64 * rng.randrange(200), "W" if rng.random() < 0.5 else "R", now)
        st = c.stats
        assert st.hits + st.misses == 400
        assert st.expiration_misses <= st.misses
        assert st.mem_read_hits == st.misses  # every miss fills
