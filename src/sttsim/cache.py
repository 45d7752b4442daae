"""Set-associative L1 data cache with per-block retention expiry.

Volatile blocks carry a k-state monitor counter ticking at retention/k from
their fill (or last write). When the counter reaches k-1 the block is written
back if dirty and invalidated, so no block's age ever reaches the full
retention time.

A miss is an expiration miss exactly when a shadow copy with infinite
retention still hits. That shadow is a plain LRU cache, a function of the
address stream alone (Mattson et al., 1970), so `lru_hits` computes its hit
bits in one pass; the engine computes them once per (trace, geometry, first
simulated access) and every operating point reads them, instead of replaying
the shadow at each point.

Each set is a dict from tag to (expiry_ns, dirty, fill_ns), least recently
used first, plus a lower bound on the expiry times it holds. An access
settles the set's expired blocks only when its time reaches that bound, so
the common access neither scans the ways nor tests an expiry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from itertools import repeat

from .config import CoreSpec, MemTechnology, access_cycles

HIT = "hit"
MISS = "miss"
MISS_NONE = "none"
MISS_EXPIRATION = "expiration"
MISS_OTHER = "other"

READ = "R"
WRITE = "W"


@dataclass
class CacheStats:
    """Cumulative event counters; all are non-negative and monotone in a run."""

    read_hits: int = 0
    write_hits: int = 0
    read_misses: int = 0
    write_misses: int = 0
    expiration_misses: int = 0
    early_writebacks: int = 0
    writebacks: int = 0
    evictions: int = 0
    bus_read_requests: int = 0
    bus_write_requests: int = 0
    mem_busy_read_cycles: int = 0
    mem_busy_write_cycles: int = 0
    mem_idle_cycles: int = 0
    mem_read_hits: int = 0  # fills served by the next level
    shadow_misses: int = 0

    @property
    def hits(self) -> int:
        return self.read_hits + self.write_hits

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def cache_reads(self) -> int:
        """Array read operations: every read access probes the data array."""
        return self.read_hits + self.read_misses

    @property
    def cache_writes(self) -> int:
        """Array write operations: fills, write hits and all write-backs."""
        return self.mem_read_hits + self.write_hits + self.writebacks + self.early_writebacks

    def copy(self) -> "CacheStats":
        return replace(self)

    def delta(self, start: "CacheStats") -> "CacheStats":
        """Element-wise difference since `start`; either operand unchanged."""
        if not isinstance(start, CacheStats):
            raise ValueError(f"snapshot must be CacheStats, got {type(start).__name__}")
        out = CacheStats()
        for f in fields(CacheStats):
            d = getattr(self, f.name) - getattr(start, f.name)
            if d < 0:
                raise ValueError(
                    f"snapshot mismatch: {f.name} would be negative ({d}); "
                    "the snapshot does not precede this state")
            setattr(out, f.name, d)
        return out

    def settle_idle(self, total_cycles: float) -> None:
        """Derive idle cycles from total minus bus-busy cycles.

        Kept monotone (never decreased) so window deltas stay non-negative
        even when write-back bursts momentarily outrun the cycle count.
        """
        busy = self.mem_busy_read_cycles + self.mem_busy_write_cycles
        self.mem_idle_cycles = max(self.mem_idle_cycles,
                                   int(max(0, total_cycles - busy)))


def snapshot_stats(state_or_stats, window_start: CacheStats) -> CacheStats:
    """Window delta since a previously captured snapshot; accepts either a
    CacheState or its stats object."""
    current = getattr(state_or_stats, "stats", state_or_stats)
    return current.delta(window_start)


@dataclass(frozen=True)
class AccessOutcome:
    kind: str  # HIT | MISS
    miss_class: str  # MISS_NONE | MISS_EXPIRATION | MISS_OTHER
    stall_cycles: int
    writeback_issued: bool


@dataclass(frozen=True)
class ExpiredBlock:
    set_index: int
    way: int
    tag: int
    age_ns: float
    was_dirty: bool


# Fields of a block, the value of its tag in the set's dict; `replay`
# indexes them by number.
_EXPIRY, _DIRTY, _FILL = range(3)


def lru_hits(addrs, geometry, sets=None) -> bytearray:
    """One byte per address: 1 where an LRU cache of `geometry` with infinite
    retention hits, 0 where it misses.

    The cache starts cold, or from `sets` (one recency-ordered dict of tags
    per set, updated in place) to continue an earlier pass.
    """
    shift = geometry.line_bytes.bit_length() - 1
    mask = geometry.sets - 1
    ways = geometry.ways
    if sets is None:
        sets = [{} for _ in range(geometry.sets)]
    bits = bytearray()
    record = bits.append
    for addr in addrs:
        tag = addr >> shift
        blocks = sets[tag & mask]
        if tag in blocks:
            del blocks[tag]
            record(1)
        else:
            if len(blocks) >= ways:
                del blocks[next(iter(blocks))]
            record(0)
        blocks[tag] = None
    return bits


class CacheState:
    """One core's L1 data cache.

    Single-owner: exactly one simulation engine may mutate a CacheState;
    distinct instances are independent.
    """

    def __init__(self, core: CoreSpec, freq_ghz: float | None = None,
                 tech: MemTechnology | None = None):
        self.core = core
        self.tech = tech if tech is not None else core.data_tech
        self.geometry = core.geometry
        self.freq_ghz = freq_ghz if freq_ghz is not None else core.operating_freq_ghz

        geo = self.geometry
        self._line_shift = geo.line_bytes.bit_length() - 1
        self._set_mask = geo.sets - 1
        self._sets = [{} for _ in range(geo.sets)]
        self._bounds = [math.inf] * geo.sets
        self.volatile = self.tech.is_volatile
        # The shadow of `access`, made on its first call; runs take their
        # shadow bits from the engine instead.
        self._shadow = None

        k = core.counter_states_k
        self.counter_states_k = k
        if self.volatile:
            retention_ns = self.tech.retention_time * 1e9
            self._tick_ns = retention_ns / k
            self.lifetime_ns = self._tick_ns * (k - 1)
        else:
            self._tick_ns = math.inf
            self.lifetime_ns = math.inf

        self.read_cycles = access_cycles(self.freq_ghz, self.tech.hit_latency_ns)
        self.write_cycles = access_cycles(self.freq_ghz, self.tech.write_latency_ns)
        self.penalty_cycles = access_cycles(self.freq_ghz, core.miss_penalty_ns)

        self.stats = CacheStats()
        self._last_now_ns = 0.0

    def _check_time(self, now_ns: float) -> None:
        if now_ns < self._last_now_ns:
            raise ValueError(
                f"time ran backwards: {now_ns} ns < {self._last_now_ns} ns")

    # -- retention ---------------------------------------------------------

    def advance_retention(self, now_ns: float) -> list[ExpiredBlock]:
        """Advance every monitor counter to `now_ns`, expiring stale blocks.

        Counters equal floor(age / (retention/k)) capped at k-1; a block
        reaching k-1 is written back if dirty and invalidated, always at age
        lifetime_ns = (k-1)/k x retention.
        """
        self._check_time(now_ns)
        self._last_now_ns = now_ns
        if not self.volatile:
            return []
        expired = []
        lifetime = self.lifetime_ns
        for si, blocks in enumerate(self._sets):
            bound = math.inf
            for way, (tag, block) in enumerate(list(blocks.items())):
                # Reaching state k-1 and reaching age (k-1)*tick are the same
                # event; the age comparison is the float-robust form.
                if now_ns - block[_FILL] >= lifetime:
                    expired.append(ExpiredBlock(si, way, tag, lifetime,
                                                bool(block[_DIRTY])))
                    del blocks[tag]
                else:
                    bound = min(bound, block[_EXPIRY])
            self._bounds[si] = bound
        self._count_writebacks(0, sum(e.was_dirty for e in expired))
        return expired

    def _count_writebacks(self, evicted: int, expired: int) -> None:
        """Dirty blocks written back on eviction and on expiry; each is one
        bus write of a miss penalty."""
        st = self.stats
        st.writebacks += evicted
        st.early_writebacks += expired
        st.bus_write_requests += evicted + expired
        st.mem_busy_write_cycles += (evicted + expired) * self.penalty_cycles

    # -- access ------------------------------------------------------------

    def access(self, addr: int, op: str, now_ns: float) -> AccessOutcome:
        """Simulate one access at `now_ns`, the way a run simulates each."""
        if op not in (READ, WRITE):
            raise ValueError(f"op must be R or W, got {op!r}")
        self._check_time(now_ns)
        write = int(op == WRITE)
        shadow = None
        if self.volatile:
            if self._shadow is None:
                self._shadow = [{} for _ in range(self.geometry.sets)]
            shadow = lru_hits((addr,), self.geometry, self._shadow)
        st = self.stats
        hits, expirations, writebacks = st.hits, st.expiration_misses, st.writebacks
        # Zero instructions before the access, one nanosecond per cycle: the
        # access happens at exactly `now_ns`.
        self.replay((0,), (write,), (addr,), shadow, now_ns, 0.0, 1.0)
        stall = self.write_cycles if write else self.read_cycles
        if st.hits > hits:
            return AccessOutcome(HIT, MISS_NONE, stall, False)
        miss_class = (MISS_EXPIRATION if st.expiration_misses > expirations
                      else MISS_OTHER)
        return AccessOutcome(MISS, miss_class, stall + self.penalty_cycles,
                             st.writebacks > writebacks)

    def replay(self, gaps, writes, addrs, shadow: bytearray | None,
               cycles: float, cpi: float, ns_per_cycle: float) -> float:
        """Simulate accesses in order on a blocking in-order core.

        Access i follows `gaps[i]` non-memory instructions of `cpi` cycles
        each and stalls for its own latency; `cycles` is the count before the
        first, and the count after the last is returned. `shadow` holds the
        infinite-retention hit bit of each access (None with infinite
        retention). The counters reach `stats` once, at the end.
        """
        sets, bounds = self._sets, self._bounds
        shift, mask, ways = self._line_shift, self._set_mask, self.geometry.ways
        lifetime = self.lifetime_ns
        read_cycles, write_cycles = self.read_cycles, self.write_cycles
        read_miss_cycles = read_cycles + self.penalty_cycles
        write_miss_cycles = write_cycles + self.penalty_cycles
        inf = math.inf
        read_hits = write_hits = read_misses = write_misses = 0
        expirations = evictions = writebacks = early = 0
        now = self._last_now_ns
        for gap, write, addr, shadow_hit in zip(
                gaps, writes, addrs, repeat(0) if shadow is None else shadow):
            cycles += gap * cpi
            now = cycles * ns_per_cycle
            tag = addr >> shift
            index = tag & mask
            blocks = sets[index]
            if now >= bounds[index]:
                # Some block of this set may have reached its lifetime:
                # write back and invalidate every one that has.
                bound = inf
                for old, block in list(blocks.items()):
                    if now >= block[0]:
                        del blocks[old]
                        early += block[1]
                    elif block[0] < bound:
                        bound = block[0]
                bounds[index] = bound
            block = blocks.pop(tag, None)
            if block is not None:
                if write:
                    # An array write fully restores the cell, so retention
                    # restarts.
                    blocks[tag] = (now + lifetime, 1, now)
                    write_hits += 1
                    cycles += write_cycles
                else:
                    blocks[tag] = block
                    read_hits += 1
                    cycles += read_cycles
                continue
            if write:
                write_misses += 1
                cycles += write_miss_cycles
            else:
                read_misses += 1
                cycles += read_miss_cycles
            expirations += shadow_hit
            if len(blocks) >= ways:
                writebacks += blocks.pop(next(iter(blocks)))[1]
                evictions += 1
            elif not blocks:
                bounds[index] = now + lifetime
            blocks[tag] = (now + lifetime, write, now)
        self._last_now_ns = now

        st = self.stats
        misses = read_misses + write_misses
        accesses = read_hits + write_hits + misses
        st.read_hits += read_hits
        st.write_hits += write_hits
        st.read_misses += read_misses
        st.write_misses += write_misses
        st.expiration_misses += expirations
        st.evictions += evictions
        st.shadow_misses += (misses if shadow is None
                             else accesses - shadow.count(1, 0, accesses))
        st.mem_read_hits += misses
        st.bus_read_requests += misses
        st.mem_busy_read_cycles += misses * self.penalty_cycles
        self._count_writebacks(writebacks, early)
        return cycles

    # -- inspection --------------------------------------------------------

    def snapshot(self) -> CacheStats:
        return self.stats.copy()

    def valid_blocks(self) -> list[tuple[int, int, int]]:
        """(set, way, tag) for every currently valid block; a set's ways are
        numbered from least to most recently used."""
        return [(si, way, tag) for si, blocks in enumerate(self._sets)
                for way, tag in enumerate(blocks)]

    def block_counter(self, set_index: int, way: int) -> int:
        """The block's monitor counter at the latest time this cache saw."""
        block = list(self._sets[set_index].values())[way]
        return int((self._last_now_ns - block[_FILL]) / self._tick_ns)
