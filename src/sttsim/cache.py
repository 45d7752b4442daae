"""Set-associative L1 data cache with per-block retention expiry.

Volatile blocks have a k-state monitor counter ticking at retention/k from
their fill (or last write). When the counter reaches k-1 the block is written
back if dirty and invalidated, so no block's age ever reaches the full
retention time. A block keeps only that instant, its expiry time.

A miss is an expiration miss exactly when a shadow copy with infinite
retention still hits. That shadow is a plain LRU cache, a function of the
access stream alone (Mattson et al., 1970), so `LruShadow` runs it in one
pass per (trace, geometry, first simulated access), not at each operating
point. It records one code per access (a read hit, a write hit, a miss, or
a miss that evicts a clean or a dirty block); a run reads a prefix, which
`run_totals` counts and a replay `translate`s to hit bits. The same pass
bounds, in counts no frequency changes, how long a block goes between
restores of its retention, in every run by one rule: the componentwise
minimum of the pass's widest span and the run taken as one span. Where that
stays below the lifetime no block expires, and `CacheState.derive` counts
the run from the codes instead of replaying it (stack simulation over
frequency; Hill & Smith 1989).

The opposite case has a certificate of its own. In a run where every access
misses, each set is a queue of fills and every access time is a fixed sum of
counts, so `miss_facts` keeps, in one more frequency-free pass, the shortest
interval between two accesses of a block that the set could still hold, the
shortest between an access and the `ways`-th earlier access of its set, and
the index of that earlier access. Where the first interval lasts a lifetime
at a point, every access misses and `CacheState.derive_misses` counts the
run; where the second does too nothing is evicted. Otherwise the evictions
are counted in word-parallel integer lanes (SWAR arithmetic on Python
ints): `MissFacts` packs every such interval's counts, one 32-bit lane per
access, and at a point one multiply-add gives all their lengths in cycles
and one add and mask against the lifetime marks those that evict.

Each set is a dict from tag to (expiry_ns, dirty), least recently used
first, plus a lower bound on the expiry times it holds. A block expires at
the first time `now >= expiry_ns`, for an access and at the end of a run
alike. Both settle a set's expired blocks only when the time reaches its
bound, so the common access neither scans the ways nor tests an expiry.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, chain, compress, count, repeat
from operator import add, itemgetter, mul, sub

from .config import CoreSpec, access_cycles
from .trace import READ, WRITE

HIT = "hit"
MISS = "miss"
MISS_NONE = "none"
MISS_EXPIRATION = "expiration"
MISS_OTHER = "other"


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


# What an `LruShadow` did at an access, one byte each, and each one's hit bit.
_MISS, _READ_HIT, _WRITE_HIT, _EVICT_CLEAN, _EVICT_DIRTY = range(5)
_HIT_BITS = bytes((0, 1, 1, 0, 0)).ljust(256, b"\0")


class LruShadow:
    """An LRU cache of `geometry` with infinite retention, run in one pass
    over a stream of accesses that each `run` continues.

    LRU decides each access from those before it, so the first n codes of
    `run` are those of the first n accesses run alone. A block's restore
    span starts at its fill or write hit and ends at its next write hit, its
    eviction or the end of the stream (a read hit does not restore
    retention). It covers the gaps after its first access and the reads,
    writes and misses before its last.
    """

    def __init__(self, geometry):
        self.geometry = geometry
        # Tag -> the totals at its restore and its dirty bit, LRU first.
        self._sets = [{} for _ in range(geometry.sets)]
        # Running (gaps, reads, writes, misses) and the widest span so far.
        self._totals, self._widest = (0,) * 4, (0,) * 4

    def run(self, gaps, writes, addrs) -> bytearray:
        """The code of each access."""
        sets, ways = self._sets, self.geometry.ways
        shift, mask = self.geometry.line_bytes.bit_length() - 1, len(sets) - 1
        g, r, w, m = self._totals
        mg, mr, mw, mm = self._widest
        codes = bytearray()
        record = codes.append
        for gap, write, addr in zip(gaps, writes, addrs):
            g += gap
            tag = addr >> shift
            blocks = sets[tag & mask]
            block = blocks.pop(tag, None)
            if block is None:
                miss = 1
                if len(blocks) >= ways:
                    block = blocks.pop(next(iter(blocks)))
                    record(_EVICT_CLEAN + block[4])  # _EVICT_DIRTY if dirty
                else:
                    record(_MISS)
            elif write:
                record(_WRITE_HIT)
                miss = 0
            else:
                record(_READ_HIT)
                blocks[tag] = block
                r += 1
                continue
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
        self._totals = g, r, w, m
        self._widest = mg, mr, mw, mm
        return codes

    def span(self) -> tuple[int, int, int, int]:
        """The componentwise maximum of (gaps, reads, writes, misses) over
        every restore span so far, those still open ending here."""
        marks = [b for blocks in self._sets for b in blocks.values()]
        return tuple(
            max(widest, total - min((b[i] for b in marks), default=total))
            for i, (widest, total) in enumerate(zip(self._widest, self._totals)))


def run_totals(codes, writes) -> tuple[int, int, int, int, int, int]:
    """(reads, writes, misses, write hits, evictions, dirty evictions) of a
    run of accesses with the write flags `writes`, from the codes of an
    `LruShadow` that ran from its first access on."""
    stop, stores = len(writes), writes.count(1)
    write_hits = codes.count(_WRITE_HIT, 0, stop)
    dirty = codes.count(_EVICT_DIRTY, 0, stop)
    misses = stop - codes.count(_READ_HIT, 0, stop) - write_hits
    return (stop - stores, stores, misses, write_hits,
            codes.count(_EVICT_CLEAN, 0, stop) + dirty, dirty)


_LANE = 32  # bits per access in a packed interval count
_TOP = _LANE - 1  # each lane's top bit, clear in every stored count
_CAP = 1 << 21  # the largest count a lane stores: longer intervals saturate
_ONE = (1).to_bytes(_LANE // 8, "little")


class MissFacts:
    """What no frequency changes about a stream of accesses to a cache of
    `geometry`, read by `CacheState.derive_misses`; made by `miss_facts`.

    `back[i]` is the index of the `ways`-th earlier access to access i's set,
    or -1 if there is none. `reuse` and `fifo` record, as (i, gaps, reads,
    writes), the componentwise minimum over intervals ending at or before
    access i, each time it drops: `reuse` over the intervals from an access
    to the next one of its block, if fewer than `ways` accesses to the set
    lie between (a); `fifo` over those from `back[i]` to i (b). An interval
    from j to i covers the gaps after j and the reads and writes before i.
    """

    def __init__(self, back, reuse, fifo, gaps, writes):
        self.back, self.reuse, self.fifo = back, reuse, fifo
        self._stream = gaps, writes
        self._lanes = None

    def evictions(self, accesses: int, cpi: int, stall, lo: int, hi: int):
        """(evicting, dirty, unsure) over the intervals (b) that end at the
        first `accesses` accesses, each cpi·DG + stall[0]·DR + stall[1]·DW
        cycles long for DG gaps, DR reads and DW writes: `evicting` counts
        those shorter than `lo` cycles, `dirty` those of them whose earlier
        access is a write, and `unsure` lists, uncounted, the accesses whose
        interval lasts from `lo` to `hi` cycles. No lane may reach its top
        bit, and one that saturates must last more than `hi` cycles.

        The counts of the intervals are made on the first call, one
        `_LANE`-bit lane per access in each of three ints, at most `_CAP`
        (all three `_CAP` where there is no `back`), with one byte per
        access that is 1 where `back[i]` is a write.
        """
        if self._lanes is None:
            gaps, writes = self._stream
            self._lanes = (
                _lanes(gaps, self.back),
                _lanes(chain((0,), map((1).__xor__, writes)), self.back),
                _lanes(chain((0,), writes), self.back),
                bytes(map(writes.__getitem__, self.back)))
        dg, dr, dw, written = self._lanes
        if accesses < len(self.back):
            keep = (1 << _LANE * accesses) - 1
            dg, dr, dw = dg & keep, dr & keep, dw & keep
        size = _LANE // 8
        ones = int.from_bytes(_ONE * accesses, "little")
        tops = ones << _TOP
        length = cpi * dg + stall[0] * dr + stall[1] * dw
        # Lane i's top bit is set where its length reaches lo, or hi + 1.
        past_lo = (length + ((1 << _TOP) - lo) * ones) & tops
        past_hi = (length + ((1 << _TOP) - hi - 1) * ones) & tops
        evicting = tops ^ past_lo
        flags = bytearray(size * accesses)
        flags[size - 1::size] = written[:accesses]  # bit _TOP - 7 of lane i
        dirty = evicting & int.from_bytes(flags, "little") << 7
        unsure = past_lo ^ past_hi  # rarely any
        if unsure:
            unsure = list(compress(count(), unsure.to_bytes(
                size * accesses, "little")[size - 1::size]))
        return evicting.bit_count(), dirty.bit_count(), unsure or []


def _lanes(counts, back) -> int:
    """Lane i holds t[i] - t[back[i]], at most `_CAP`, with t the running
    totals of `counts`; `_CAP` where back[i] is -1."""
    totals = array("q", accumulate(counts))
    totals[len(back):] = array("q", (-_CAP,))  # at index -1
    lanes = array("I", map(min, map(sub, totals, map(totals.__getitem__, back)),
                           repeat(_CAP)))
    if sys.byteorder != "little":
        lanes.byteswap()
    return int.from_bytes(lanes, "little")


def miss_facts(geometry, gaps, writes, addrs) -> MissFacts:
    """The `MissFacts` of a stream of accesses to a cache of `geometry`, in
    one pass; its lanes read `gaps` and `writes` again when first asked."""
    ways = geometry.ways
    shift, mask = geometry.line_bytes.bit_length() - 1, geometry.sets - 1
    recent = [deque(maxlen=ways) for _ in range(geometry.sets)]
    last = {}  # block -> (index, gaps, reads) at its latest access
    back = array("i")
    keep = back.append
    reuse, fifo = [], []
    ag = ar = aw = bg = br = bw = math.inf
    g = r = 0
    for i, gap, write, addr in zip(count(), gaps, writes, addrs):
        g += gap
        tag = addr >> shift
        seen = recent[tag & mask]
        if len(seen) == ways:
            k, gk, rk = seen[0]
            dg = g - gk
            dr = r - rk
            dw = i - k - dr
            if dg < bg or dr < br or dw < bw:
                bg, br, bw = min(bg, dg), min(br, dr), min(bw, dw)
                fifo.append((i, bg, br, bw))
        else:
            k = -1
        keep(k)
        prev = last.get(tag)
        if prev is not None and prev[0] >= k:
            j, gj, rj = prev
            dg = g - gj
            dr = r - rj
            dw = i - j - dr
            if dg < ag or dr < ar or dw < aw:
                ag, ar, aw = min(ag, dg), min(ar, dr), min(aw, dw)
                reuse.append((i, ag, ar, aw))
        last[tag] = mark = (i, g, r)
        seen.append(mark)
        if not write:
            r += 1
    return MissFacts(back, reuse, fifo, gaps, writes)


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
        # shadow codes from the engine instead.
        self._shadow = None

        # The monitor counter ticks every retention/k and expires the block
        # on reaching k-1; the float form of that instant is pinned.
        k = core.counter_states_k
        self.lifetime_ns = (self.tech.retention_time * 1e9 / k * (k - 1)
                            if self.volatile else math.inf)

        self.read_cycles = core.read_cycles(freq_ghz)
        self.write_cycles = core.write_cycles(freq_ghz)
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
        codes = None
        if self.volatile:
            if self._shadow is None:
                self._shadow = LruShadow(self.geometry)
            codes = self._shadow.run((0,), (write,), (addr,))
        st = self.stats
        hits, expirations, writebacks = st.hits, st.expiration_misses, st.writebacks
        # Zero instructions before the access, one nanosecond per cycle: the
        # access happens at exactly `now_ns`.
        self.replay((0,), (write,), (addr,), codes, now_ns, 0.0, 1.0)
        stall = self.write_cycles if write else self.read_cycles
        if st.hits > hits:
            return AccessOutcome(HIT, MISS_NONE, stall, False)
        miss_class = (MISS_EXPIRATION if st.expiration_misses > expirations
                      else MISS_OTHER)
        return AccessOutcome(MISS, miss_class, stall + self.penalty_cycles,
                             st.writebacks > writebacks)

    def replay(self, gaps, writes, addrs, codes: bytearray | None,
               cycles: float, cpi: float, ns_per_cycle: float) -> float:
        """Simulate accesses in order on a blocking in-order core.

        Access i follows `gaps[i]` non-memory instructions of `cpi` cycles
        each and stalls for its own latency; `cycles` is the count before the
        first, and the count after the last is returned. `codes` begin with
        those of an `LruShadow` run over the same accesses (None with
        infinite retention). The counters reach `stats` once, at the end.
        """
        bits = None if codes is None else codes[:len(gaps)].translate(_HIT_BITS)
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
                gaps, writes, addrs, repeat(0) if bits is None else bits):
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
        shadow_hits = (read_hits + write_hits if bits is None
                       else bits.count(1, 0, accesses))
        self._count(read_hits, write_hits, read_misses, write_misses,
                    expirations, evictions, writebacks, early,
                    accesses - shadow_hits)
        return cycles

    def derive(self, totals, span, gaps, nonmem: int, cpi: float,
               ns_per_cycle: float) -> float | None:
        """The cycles of a run from a cold cache, with its counters added to
        `stats` and the cache's contents left as they were; None, counting
        nothing, unless no block can expire in it. The run is `replay`'s
        accesses, `nonmem` non-memory instructions in all, with its
        `run_totals`; `span` is the widest restore span of an `LruShadow`
        run from its first access on, through its last or further.

        A restore span of the run is one of the shadow's or the start of one
        that the run's end cuts off (a trailing part of a gap is at most the
        next access's gap), so it is bounded componentwise by `span` and by
        the run taken as one span. One of g gaps, r reads, w writes and m
        misses lasts at most cpi·g + rc·r + wc·w + pen·m cycles. If the
        bound stays below the lifetime by more than the rounding of the
        run's times, no block expires and the run is the shadow's LRU run;
        with an integer `cpi`, its cycles are an exact integer sum, as in a
        replay. A run it refuses may still be one in which every access
        misses, which `derive_misses` derives.
        """
        rc, wc, pen = self.read_cycles, self.write_cycles, self.penalty_cycles
        reads, stores, misses, write_hits, evictions, dirty = totals
        cycles = cpi * nonmem + rc * reads + wc * stores + pen * misses
        whole = (nonmem - gaps[0] if len(gaps) else nonmem, reads, stores,
                 misses)
        g, r, w, m = map(min, span, whole)
        widest_ns = (cpi * g + rc * r + wc * w + pen * m) * ns_per_cycle
        margin_ns = 1e-12 * (cycles * ns_per_cycle + self.lifetime_ns)
        if (not float(cpi).is_integer() or cycles >= 2 ** 53
                or widest_ns + margin_ns >= self.lifetime_ns):
            return None
        write_misses = stores - write_hits
        self._count(reads - misses + write_misses, write_hits,
                    misses - write_misses, write_misses, 0, evictions, dirty,
                    0, misses)
        return float(cycles)

    def derive_misses(self, facts: MissFacts, totals, gaps,
                      writes: bytes, tail: int, nonmem: int, cpi: float,
                      ns_per_cycle: float) -> float | None:
        """The cycles of a run from a cold cache, with its counters added to
        `stats` and the cache's contents left as they were; None, counting
        nothing, unless `facts` show that every access of the run misses.
        The run is `replay`'s accesses followed by `tail` non-memory
        instructions, `nonmem` in all; `facts` are those of a stream that
        begins with the run's accesses, and `totals` the run's `run_totals`.

        If every access misses, each set is a queue of fills, and access i
        fills at cpi·G + (rc+pen)·R + (wc+pen)·W cycles, with G the gaps up
        to it and R and W the reads and writes before it. Access i misses if
        its block's previous access is not among the `ways` latest of its
        set, or if it came a lifetime or more before; it evicts exactly when
        the `ways`-th earlier access k of its set came less than a lifetime
        before, and the victim is k's fill. If the shortest interval (a) of
        `facts`, taken at this point, reaches the lifetime by more than the
        rounding of the run's times, every access misses; if the shortest
        (b) does too, none evicts.

        Otherwise `facts.evictions` takes every interval (b) of the run in
        integer cycles at once, cpi·DG + (rc+pen)·DR + (wc+pen)·DW, one
        `_LANE`-bit lane per access, and one add and mask against the
        lifetime in cycles marks the lanes that evict; `int.bit_count`
        counts them and their dirty victims. A lane within the rounding of
        the run's times of the lifetime is settled from the exact float
        times, as a replay adds them up. A count that does not fit a lane
        saturates at `_CAP`, so the lifetime must be shorter than `_CAP`
        times the smallest of cpi, rc+pen and wc+pen, and `_CAP` times
        their sum must stay below a lane's top bit; a run that breaks
        either is replayed instead. Early write-backs are the dirty fills
        that expire by the end of the run and were not evicted; the fills
        that outlive it start within a lifetime of its end, and a bisection
        over its last accesses finds the first. With an integer `cpi` every
        time is the exact float a replay adds up.
        """
        accesses = len(gaps)
        stall = (self.read_cycles + self.penalty_cycles,
                 self.write_cycles + self.penalty_cycles)
        _, dirty, shadow_misses = totals[:3]
        cycles = (cpi * nonmem + stall[0] * (accesses - dirty)
                  + stall[1] * dirty)
        if not float(cpi).is_integer() or cycles >= 2 ** 53:
            return None
        cpi = int(cpi)
        lifetime = self.lifetime_ns
        sure_ns = lifetime + 1e-12 * (cycles * ns_per_cycle + lifetime)

        def clears(marks) -> bool:
            """Whether every interval of `marks` ending in the run lasts at
            least the lifetime, with the margin."""
            at = bisect_left(marks, accesses, key=itemgetter(0))
            if not at:
                return True
            _, g, r, w = marks[at - 1]
            shortest = cpi * g + stall[0] * r + stall[1] * w
            return shortest * ns_per_cycle >= sure_ns

        if not clears(facts.reuse):
            return None
        # An interval of fewer cycles than `lo` surely evicts, one of more
        # than `hi` surely does not.
        lifetime_cycles = lifetime / ns_per_cycle
        margin_cycles = (sure_ns - lifetime) / ns_per_cycle
        lo = max(0, math.ceil(lifetime_cycles - margin_cycles))
        hi = math.floor(lifetime_cycles + margin_cycles)
        back = facts.back
        evictions = writebacks = 0
        if not clears(facts.fifo):
            if ((cpi + sum(stall)) * _CAP >= 1 << _TOP
                    or hi >= min(cpi, *stall) * _CAP):
                return None
            evictions, writebacks, unsure = facts.evictions(
                accesses, cpi, stall, lo, hi)
            if unsure:
                steps = map(add, map(mul, gaps, repeat(cpi)),
                            chain((0,), map(stall.__getitem__, writes)))
                at = list(accumulate(steps))  # the cycles at each access
                for i in unsure:
                    k = back[i]
                    if at[i] * ns_per_cycle < at[k] * ns_per_cycle + lifetime:
                        evictions += 1
                        writebacks += writes[k]
        # The fills that outlive the run start less than a lifetime before
        # its end, each followed by a stall: they are among the last
        # hi / (rc+pen) accesses, and `live` is the first of them.
        end_ns = cycles * ns_per_cycle
        last = int(cycles) - tail * cpi  # the cycles after the last access
        base = accesses - min(accesses, hi // min(stall))
        gaps_to = list(accumulate(chain((0,), gaps[base + 1:accesses])))

        def outlives(j) -> bool:
            """Whether access j's fill expires after the end of the run."""
            since = (stall[0] * (accesses - j)
                     + (stall[1] - stall[0]) * writes.count(1, j, accesses)
                     + cpi * (gaps_to[-1] - gaps_to[j - base]))
            return (last - since) * ns_per_cycle + lifetime > end_ns

        live = base + bisect_left(range(base, accesses), True, key=outlives)
        # The dirty fills before `live` are written back early unless
        # evicted. A fill from `live` on is evicted by the `ways`-th later
        # access of its set, if the run has one, as it outlives the run.
        early = writes.count(1, 0, live) - writebacks
        if evictions:
            early += sum(map(writes.__getitem__,
                             filter(live.__le__, back[live:accesses])))
        self._count(0, 0, accesses - dirty, dirty, accesses - shadow_misses,
                    evictions, writebacks, early, shadow_misses)
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
