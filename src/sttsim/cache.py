"""Set-associative L1 data cache with per-block retention expiry.

Volatile blocks have a k-state monitor counter ticking at retention/k from
their fill (or last write). When the counter reaches k-1 the block is written
back if dirty and invalidated, so no block's age ever reaches the full
retention time. A block keeps only that instant, its expiry time.

A miss is an expiration miss exactly when a shadow copy with infinite
retention still hits. That shadow is a plain LRU cache, a function of the
access stream alone (Mattson et al., 1970), so `LruShadow` runs it in one
pass; the engine runs it once per (trace, geometry, first simulated access)
and every operating point reads its hit bits, instead of replaying the
shadow at each point.

The same pass bounds, in counts no frequency changes, how long a block goes
between restores of its retention; where that bound stays below the lifetime
no block expires, and `CacheState.derive` counts the run from the shadow
instead of replaying it (stack simulation over frequency; Hill & Smith 1989).

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


class LruShadow:
    """An LRU cache of `geometry` with infinite retention, run in one pass
    over a stream of accesses that each `run` continues.

    Besides the hit bits it keeps what no frequency changes, in `totals`:
    gaps, reads, writes, misses, write hits, evictions and dirty evictions.
    A block's restore span starts at its fill or write hit and ends at its
    next write hit, its eviction or the end of the stream (a read hit does
    not restore retention). It covers the gaps after its first access and
    the reads, writes and misses before its last.
    """

    def __init__(self, geometry):
        self.geometry = geometry
        # Tag -> the totals at its restore and its dirty bit, LRU first.
        self._sets = [{} for _ in range(geometry.sets)]
        self.totals, self._widest = (0,) * 7, (0,) * 4

    def run(self, gaps, writes, addrs) -> bytearray:
        """One byte per access: 1 where the cache hits, 0 where it misses."""
        sets, ways = self._sets, self.geometry.ways
        shift, mask = self.geometry.line_bytes.bit_length() - 1, len(sets) - 1
        g, r, w, m, write_hits, evictions, dirty = self.totals
        mg, mr, mw, mm = self._widest
        bits = bytearray()
        record = bits.append
        for gap, write, addr in zip(gaps, writes, addrs):
            g += gap
            tag = addr >> shift
            blocks = sets[tag & mask]
            block = blocks.pop(tag, None)
            if block is None:
                record(0)
                miss = 1
                if len(blocks) >= ways:
                    block = blocks.pop(next(iter(blocks)))
                    evictions += 1
                    dirty += block[4]
            else:
                record(1)
                if not write:
                    blocks[tag] = block
                    r += 1
                    continue
                miss = 0
                write_hits += 1
            if block is not None:
                # This access ends `block`'s restore span.
                g0, r0, w0, m0, _ = block
                if g - g0 > mg:
                    mg = g - g0
                if r - r0 > mr:
                    mr = r - r0
                if w - w0 > mw:
                    mw = w - w0
                if m - m0 > mm:
                    mm = m - m0
            blocks[tag] = (g, r, w, m, write)
            r += not write
            w += write
            m += miss
        self.totals = g, r, w, m, write_hits, evictions, dirty
        self._widest = mg, mr, mw, mm
        return bits

    def span(self) -> tuple[int, int, int, int]:
        """The componentwise maximum of (gaps, reads, writes, misses) over
        every restore span so far, those still open ending here."""
        marks = [b for blocks in self._sets for b in blocks.values()]
        return tuple(
            max(widest, total - min((b[i] for b in marks), default=total))
            for i, (widest, total) in enumerate(zip(self._widest, self.totals)))


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
        self._count(early=dirty)
        return expired

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
                self._shadow = LruShadow(self.geometry)
            shadow = self._shadow.run((0,), (write,), (addr,))
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
        accesses = read_hits + write_hits + read_misses + write_misses
        shadow_hits = (read_hits + write_hits if shadow is None
                       else shadow.count(1, 0, accesses))
        self._count(read_hits, write_hits, read_misses, write_misses,
                    expirations, evictions, writebacks, early,
                    accesses - shadow_hits)
        return cycles

    def derive(self, totals, span, gaps: int, cpi: float,
               ns_per_cycle: float) -> float | None:
        """The cycles of a whole run from a cold cache, with its counters
        added to `stats` and the cache's contents left as they were; None,
        counting nothing, unless no block can expire in it. `totals` and
        `span` are those of an `LruShadow` that ran the run's accesses from a
        cold start, and `gaps` is the run's own sum.

        A restore span of g gaps, r reads, w writes and m misses lasts at
        most cpi·g + rc·r + wc·w + pen·m cycles. If the shadow's widest span
        stays below the lifetime by more than the rounding of the run's
        times, no block expires and the run is the shadow's LRU run; with an
        integer `cpi`, its cycles are an exact integer sum, as in a replay.
        """
        rc, wc, pen = self.read_cycles, self.write_cycles, self.penalty_cycles
        _, reads, writes, misses, write_hits, evictions, dirty = totals
        cycles = cpi * gaps + rc * reads + wc * writes + pen * misses
        g, r, w, m = span
        widest_ns = (cpi * g + rc * r + wc * w + pen * m) * ns_per_cycle
        margin_ns = 1e-12 * (cycles * ns_per_cycle + self.lifetime_ns)
        if (not float(cpi).is_integer() or cycles >= 2 ** 53
                or widest_ns + margin_ns >= self.lifetime_ns):
            return None
        write_misses = writes - write_hits
        self._count(reads - misses + write_misses, write_hits,
                    misses - write_misses, write_misses, 0, evictions, dirty,
                    0, misses)
        return float(cycles)

    def _count(self, read_hits=0, write_hits=0, read_misses=0, write_misses=0,
               expirations=0, evictions=0, writebacks=0, early=0,
               shadow_misses=0):
        """Add events to `stats`: each miss is a bus read of a miss penalty,
        each dirty block written back (evicted or expired) a bus write."""
        st = self.stats
        misses = read_misses + write_misses
        written = writebacks + early
        st.read_hits += read_hits
        st.write_hits += write_hits
        st.read_misses += read_misses
        st.write_misses += write_misses
        st.expiration_misses += expirations
        st.evictions += evictions
        st.shadow_misses += shadow_misses
        st.mem_read_hits += misses
        st.bus_read_requests += misses
        st.mem_busy_read_cycles += misses * self.penalty_cycles
        st.writebacks += writebacks
        st.early_writebacks += early
        st.bus_write_requests += written
        st.mem_busy_write_cycles += written * self.penalty_cycles
