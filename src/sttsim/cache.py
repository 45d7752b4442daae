"""Set-associative L1 data cache with per-block retention expiry.

Volatile blocks have a k-state monitor counter ticking at retention/k from
their fill (or last write). When the counter reaches k-1 the block is written
back if dirty and invalidated, so no block's age ever reaches the full
retention time. A block keeps only that instant, its expiry time.

A miss is an expiration miss exactly when a shadow copy with infinite
retention still hits. That shadow is a plain LRU cache, a function of the
address stream alone (Mattson et al., 1970), so `lru_hits` computes its hit
bits in one pass; the engine computes them once per (trace, geometry, first
simulated access) and every operating point reads them, instead of replaying
the shadow at each point.

Each set is a dict from tag to (expiry_ns, dirty), least recently used
first, plus a lower bound on the expiry times it holds. A block expires at
the first time `now >= expiry_ns`, for an access and at the end of a run
alike. Both settle a set's expired blocks only when the time reaches its
bound, so the common access neither scans the ways nor tests an expiry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

from .config import CoreSpec, access_cycles

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


@dataclass(frozen=True)
class AccessOutcome:
    kind: str  # HIT | MISS
    miss_class: str  # MISS_NONE | MISS_EXPIRATION | MISS_OTHER
    stall_cycles: int
    writeback_issued: bool


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

    def __init__(self, core: CoreSpec, freq_ghz: float | None = None):
        self.tech = core.data_tech
        self.geometry = geo = core.geometry
        if freq_ghz is None:
            freq_ghz = core.operating_freq_ghz

        self._line_shift = geo.line_bytes.bit_length() - 1
        self._set_mask = geo.sets - 1
        self._sets = [{} for _ in range(geo.sets)]
        self._bounds = [math.inf] * geo.sets
        self.volatile = self.tech.is_volatile
        # The shadow of `access`, made on its first call; runs take their
        # shadow bits from the engine instead.
        self._shadow = None

        # The monitor counter ticks every retention/k and expires the block
        # on reaching k-1; the float form of that instant is pinned.
        k = core.counter_states_k
        self.lifetime_ns = (self.tech.retention_time * 1e9 / k * (k - 1)
                            if self.volatile else math.inf)

        self.read_cycles = access_cycles(freq_ghz, self.tech.hit_latency_ns)
        self.write_cycles = access_cycles(freq_ghz, self.tech.write_latency_ns)
        self.penalty_cycles = access_cycles(freq_ghz, core.miss_penalty_ns)

        self.stats = CacheStats()
        self._last_now_ns = 0.0

    def _check_time(self, now_ns: float) -> None:
        if now_ns < self._last_now_ns:
            raise ValueError(
                f"time ran backwards: {now_ns} ns < {self._last_now_ns} ns")

    # -- retention ---------------------------------------------------------

    def advance_retention(self, now_ns: float) -> int:
        """Settle every set at `now_ns`: each block whose lifetime of (k-1)/k
        x retention has run out is written back if dirty and invalidated, by
        the rule an access applies. Returns the number of blocks expired."""
        self._check_time(now_ns)
        self._last_now_ns = now_ns
        bounds = self._bounds
        expired = dirty = 0
        for index, blocks in enumerate(self._sets):
            if now_ns < bounds[index]:
                continue
            bound = math.inf
            for tag, (expiry, was_dirty) in list(blocks.items()):
                if now_ns >= expiry:
                    del blocks[tag]
                    expired += 1
                    dirty += was_dirty
                elif expiry < bound:
                    bound = expiry
            bounds[index] = bound
        self._count_writebacks(0, dirty)
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
                    blocks[tag] = (now + lifetime, 1)
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
            blocks[tag] = (now + lifetime, write)
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
