import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from sttsim import (CacheGeometry, CacheState, HIT, MISS, MISS_EXPIRATION,
                    MISS_NONE, MISS_OTHER, STT_10US, SRAM, default_system)
from sttsim.cache import LruShadow, run_totals
from reference import ReferenceLru, ReferenceRetentionCache

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
        # k = 4 over 10 us: the counter ticks every 2.5 us and the block
        # survives states 0-2, expiring when the counter reaches 3.
        c = CacheState(core1, 1.6)
        c.access(0x40, "R", 0.0)
        for now in (2.4 * US, 4.9 * US, 7.4 * US):
            assert c.advance_retention(now) == 0
            assert c.access(0x40, "R", now).kind == HIT
        assert c.advance_retention(7.5 * US) == 1

    def test_invalidated_at_exact_lifetime(self, core1):
        # Expiry follows the retention alone: an SRAM row given a finite
        # retention expires as the STT-RAM row of that retention does.
        for tech in (STT_10US, replace(SRAM, retention_time=10e-6)):
            c = CacheState(replace(core1, data_tech=tech), 1.6)
            c.access(0x40, "R", 0.0)
            assert c.lifetime_ns == (10.0 * US / 4) * 3
            assert c.advance_retention(c.lifetime_ns) == 1  # (k-1)/k x 10us
            out = c.access(0x40, "R", c.lifetime_ns)
            assert (out.kind, out.miss_class) == (MISS, MISS_EXPIRATION)

    def test_end_of_run_and_access_expire_at_the_same_instant(self, core1):
        # A float instant where `now - fill >= lifetime` fails while
        # `now >= fill + lifetime` holds: both paths must expire the block.
        fill = 4178.825519599349
        c = CacheState(core1, 1.6)
        c.access(0x40, "W", fill)
        now = fill + c.lifetime_ns
        assert now - fill < c.lifetime_ns
        assert c.advance_retention(now) == 1
        assert c.stats.early_writebacks == 1

        c = CacheState(core1, 1.6)
        c.access(0x40, "W", fill)
        out = c.access(0x40, "R", now)
        assert (out.kind, out.miss_class) == (MISS, MISS_EXPIRATION)
        assert c.stats.early_writebacks == 1

    def test_infinite_retention_never_expires(self, system):
        for tech in (SRAM, replace(STT_10US, retention_time=math.inf)):
            core = replace(system.core("core1"), data_tech=tech)
            c = CacheState(core, 1.6)
            c.access(0x40, "R", 0.0)
            assert c.lifetime_ns == math.inf
            assert c.advance_retention(1e12) == 0
            assert c.access(0x40, "R", 1e12).kind == HIT

    def test_time_regression_rejected(self, core1):
        c = CacheState(core1, 1.6)
        c.advance_retention(100.0)
        with pytest.raises(ValueError):
            c.advance_retention(99.0)
        with pytest.raises(ValueError):
            c.access(0x40, "R", 50.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_access_time_rejected(self, core1, bad):
        c = CacheState(core1, 1.6)
        with pytest.raises(ValueError, match=f"finite, got {bad}"):
            c.access(0x40, "R", bad)
        # The rejected call changed nothing: time 5 ns is still ahead.
        assert c.access(0x40, "R", 5.0).kind == MISS
        assert c.stats.accesses == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_retention_time_rejected(self, core1, bad):
        c = CacheState(core1, 1.6)
        c.access(0x40, "W", 10.0)
        with pytest.raises(ValueError, match=f"finite, got {bad}"):
            c.advance_retention(bad)
        with pytest.raises(ValueError, match="ran backwards"):
            c.access(0x40, "R", 5.0)
        assert c.stats.early_writebacks == 0

    def test_dirty_block_written_back_on_expiry(self, core1):
        c = CacheState(core1, 1.6)
        c.access(0x40, "W", 0.0)
        assert c.advance_retention(8 * US) == 1
        assert c.stats.early_writebacks == 1
        assert c.stats.bus_write_requests == 1
        assert c.stats.mem_busy_write_cycles == c.penalty_cycles

    def test_clean_block_expires_without_writeback(self, core1):
        c = CacheState(core1, 1.6)
        c.access(0x40, "R", 0.0)
        assert c.advance_retention(8 * US) == 1
        assert c.stats.early_writebacks == 0

    def test_write_restores_full_retention(self, core1):
        c = CacheState(core1, 1.6)
        c.access(0x40, "W", 0.0)
        c.access(0x40, "W", 7.0 * US)  # refresh just before expiry
        assert c.advance_retention(14.0 * US) == 0  # age 7us from rewrite
        out = c.access(0x40, "R", 14.2 * US)
        assert out.kind == HIT

    def test_no_settled_block_outlives_its_lifetime(self, core1):
        # Every hit reads a block younger than the monitor lifetime, counted
        # from its fill or last write, so no block's age ever reaches the
        # retention time; settling the counters between accesses keeps it so.
        rng = random.Random(13)
        c = CacheState(core1, 1.6)
        restored = {}
        now = 0.0
        for _ in range(300):
            now += rng.uniform(10.0, 4000.0)
            addr = 64 * rng.randrange(96)
            op = "W" if rng.random() < 0.4 else "R"
            out = c.access(addr, op, now)
            if out.kind == HIT:
                age = now - restored[addr]
                assert age < c.lifetime_ns < c.tech.retention_time * 1e9
            if out.kind == MISS or op == "W":
                restored[addr] = now
            c.advance_retention(now)
        assert c.stats.hits > 0 and c.stats.expiration_misses > 0

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
        c = CacheState(toy_core(ways=1), 1.6)
        c.access(0x0, "R", 0.0)
        c.access(0x40, "R", 10.0)  # same set, evicts A
        out = c.access(0x0, "R", 20.0)
        assert (out.kind, out.miss_class) == (MISS, MISS_OTHER)
        assert c.stats.expiration_misses == 0
        assert c.stats.evictions == 2  # B evicted A, then A evicted B

    def test_lru_victim_selection(self):
        c = CacheState(toy_core(ways=4), 1.6)
        for i in range(4):
            c.access(i * 64, "R", float(i))
        c.access(0, "R", 10.0)  # block 0 becomes MRU
        c.access(4 * 64, "R", 11.0)  # evicts block 1, the LRU
        assert c.access(0, "R", 12.0).kind == HIT
        assert c.access(64, "R", 13.0).kind == MISS

    def test_invalid_way_preferred_over_lru(self, core1):
        c = CacheState(core1, 1.6)
        c.access(0x40, "R", 0.0)
        c.advance_retention(8 * US)  # way 0 invalidated
        c.access(0x40 + 128 * 64, "R", 8.1 * US)  # same set, new tag
        assert c.stats.evictions == 0

    def test_dirty_eviction_writes_back(self):
        c = CacheState(toy_core(ways=1), 1.6)
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

    def test_a_real_hit_can_be_an_infinite_retention_miss(self):
        # A miss fills an expired way before it evicts, so the block the LRU
        # shadow evicts can stay in the real cache: at 7,600 ns 0x0 has
        # expired (lifetime 7,500 ns), 0x80 takes its way and 0x40 stays.
        c = CacheState(toy_core(ways=2, sets=1), 1.6)
        ref = ReferenceLru(sets=1, ways=2, line_bytes=64)
        for addr, now in ((0x0, 0), (0x40, 1000), (0x0, 2000), (0x80, 7600)):
            c.access(addr, "R", float(now))
            ref.access(addr)
        assert c.access(0x40, "R", 7700.0).kind == HIT
        assert not ref.access(0x40)
        assert c.stats.hits == 2
        assert c.stats.shadow_misses == ref.misses == 4


class LazyAgainstReference:
    """A `CacheState` and a `ReferenceRetentionCache` of one toy core, fed
    the same accesses; the reference settles every expired block of a set at
    each access to it, the cache only the blocks it touches or needs."""

    def __init__(self, ways=2, sets=1, retention_s=10e-6):
        core = toy_core(ways, sets, replace(STT_10US,
                                            retention_time=retention_s))
        self.cache = CacheState(core, 1.6)
        c = self.cache
        self.ref = ReferenceRetentionCache(
            sets, ways, 64, c.lifetime_ns, c.read_cycles, c.write_cycles,
            c.penalty_cycles)

    def access(self, addr, write, now_ns):
        """Whether the access hits, asserting that both models agree."""
        hit = self.cache.access(addr, "W" if write else "R", now_ns).kind == HIT
        assert hit == (self.ref.access(addr, write, now_ns)
                       == (self.ref.write_cycles if write
                           else self.ref.read_cycles))
        return hit

    def settle(self, now_ns):
        """Settle both at `now_ns` and compare every total; the number of
        blocks the cache settled."""
        settled = self.cache.advance_retention(now_ns)
        self.ref.finish(now_ns)
        totals = vars(self.cache.stats)
        assert {k: totals[k] for k in self.ref.counts} == self.ref.counts
        return settled


class TestLazyExpiry:
    """A block that expires stays in its set until it is touched, its way
    is needed or the run ends, and is then settled as an eager scan would:
    the same victims, the same write-backs, the same totals. Lifetimes are
    7,500 ns (10 us, k = 4)."""

    def test_expired_block_gives_its_way_without_an_eviction(self):
        m = LazyAgainstReference()
        m.access(0x0, True, 0.0)
        m.access(0x40, False, 1000.0)
        m.access(0x0, False, 2000.0)  # 0x0 is most recent, 0x40 the LRU
        # At 8,000 ns 0x0 has expired and 0x40 has not: 0x80 takes 0x0's
        # way, not the LRU block's.
        assert not m.access(0x80, False, 8000.0)
        assert m.cache.stats.evictions == 0
        assert m.cache.stats.early_writebacks == 1
        assert m.access(0x40, False, 8100.0)
        m.settle(8100.0)
        assert m.cache.stats.evictions == 0

    def test_live_full_set_evicts_the_lru_block(self):
        m = LazyAgainstReference()
        m.access(0x0, True, 0.0)
        m.access(0x40, False, 1000.0)
        m.access(0x0, False, 2000.0)
        assert not m.access(0x80, False, 3000.0)  # evicts 0x40
        assert m.access(0x0, False, 3100.0)
        assert not m.access(0x40, False, 3200.0)  # evicts 0x80
        m.settle(3200.0)
        stats = m.cache.stats
        assert (stats.evictions, stats.writebacks,
                stats.early_writebacks) == (2, 0, 0)

    def test_stale_dirty_block_refilled_writes_back_once(self):
        m = LazyAgainstReference()
        m.access(0x0, True, 0.0)
        m.access(0x40, True, 100.0)
        assert not m.access(0x0, False, 8000.0)  # expired: written back
        assert m.cache.stats.early_writebacks == 1
        assert m.cache.stats.expiration_misses == 1
        assert m.settle(8000.0) == 1  # 0x40, expired at 7,600 ns
        assert m.cache.stats.early_writebacks == 2
        # The refilled 0x0 is clean: its expiry writes nothing back.
        assert m.settle(20_000.0) == 1
        assert m.cache.stats.early_writebacks == 2

    def test_stale_blocks_are_settled_at_the_end(self):
        m = LazyAgainstReference(ways=2, sets=2)
        m.access(0x0, True, 0.0)  # set 0
        m.access(0x40, True, 0.0)  # set 1
        m.access(0x80, False, 9000.0)  # set 0 has a free way: 0x0 stays
        m.access(0xC0, False, 9500.0)  # and set 1's 0x40 too
        assert m.cache.stats.early_writebacks == 0
        # Both expired before the last two accesses; the end settles both.
        assert m.settle(9500.0) == 2
        assert m.cache.stats.early_writebacks == 2
        assert m.settle(17_000.0) == 2  # 0x80 and 0xC0, clean
        assert m.cache.stats.early_writebacks == 2

    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(st.integers(2_000, 20_000), st.lists(
        st.tuples(st.integers(0, 7), st.booleans(), st.integers(0, 9_000),
                  st.booleans()), min_size=1, max_size=80))
    def test_two_sets_of_two_ways_match_the_reference(self, retention_ns,
                                                       steps):
        # Eight blocks over 2 sets x 2 ways, gaps near the lifetime; some
        # steps settle both models, and every total agrees after each.
        m = LazyAgainstReference(ways=2, sets=2, retention_s=retention_ns * 1e-9)
        now = 0.0
        for block, write, gap, settle in steps:
            now += gap
            m.access(64 * block, write, now)
            if settle:
                m.settle(now)
        m.settle(now + gap)


def lru_prefix_totals(geometry, writes, addrs):
    """(reads, writes, misses, write hits, evictions, dirty evictions) after
    each prefix of the stream, empty first, in a plain LRU cache with dirty
    bits."""
    sets = [[] for _ in range(geometry.sets)]  # [line, dirty], LRU first
    reads = stores = misses = write_hits = evictions = dirty = 0
    prefixes = [(0, 0, 0, 0, 0, 0)]
    for write, addr in zip(writes, addrs):
        line = addr // geometry.line_bytes
        lru = sets[line % geometry.sets]
        block = next((b for b in lru if b[0] == line), None)
        if block is not None:
            lru.remove(block)
            write_hits += write
        else:
            misses += 1
            block = [line, 0]
            if len(lru) == geometry.ways:
                evictions += 1
                dirty += lru.pop(0)[1]
        block[1] |= write
        lru.append(block)
        reads += not write
        stores += write
        prefixes.append((reads, stores, misses, write_hits, evictions, dirty))
    return prefixes


class TestLruShadow:
    @pytest.mark.parametrize("ways, sets, lines_per_way", [
        (1, 1, 3), (2, 4, 2), (4, 2, 4), (2, 4, 1)])
    def test_codes_count_every_prefix(self, ways, sets, lines_per_way):
        # With one line per way no set ever overflows, so nothing is evicted.
        rng = random.Random(100 * ways + 10 * sets + lines_per_way)
        geometry = toy_core(ways, sets).geometry
        addrs = [64 * rng.randrange(lines_per_way * ways * sets)
                 for _ in range(300)]
        writes = bytes(int(rng.random() < 0.3) for _ in addrs)
        gaps = [rng.randrange(50) for _ in addrs]
        expected = lru_prefix_totals(geometry, writes, addrs)
        assert (expected[-1][4] == 0) == (lines_per_way == 1)
        assert lines_per_way == 1 or expected[-1][5] > 0

        def prefixes(codes, stop):
            return [run_totals(codes, writes[:n]) for n in range(stop + 1)]

        whole = LruShadow(geometry).run(gaps, writes, addrs)
        assert prefixes(whole, len(addrs)) == expected

        # The same stream over several continuations: after each, every
        # prefix so far reads as it does in the independent LRU.
        split, codes = LruShadow(geometry), bytearray()
        cuts = [0, *sorted(rng.sample(range(1, len(addrs)), 6)), len(addrs)]
        for a, b in zip(cuts, cuts[1:]):
            codes += split.run(gaps[a:b], writes[a:b], addrs[a:b])
            assert prefixes(codes, b) == expected[:b + 1]
        assert codes == whole
