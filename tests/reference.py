"""Deliberately simple set-associative LRU model, written independently of
the package, used as the oracle for miss classification: a reference hit
means an infinite-retention cache would have hit. Also the plain synthetic
generator the fast one must reproduce draw for draw."""

import heapq
import random
from array import array

from sttsim import BimodalGaps, Trace


class ReferenceLru:
    def __init__(self, sets: int, ways: int, line_bytes: int):
        self.sets = sets
        self.ways = ways
        self.line_bytes = line_bytes
        # Each set is a list of line addresses, most recently used last.
        self.content = {i: [] for i in range(sets)}
        self.misses = 0

    def access(self, addr: int) -> bool:
        line = addr // self.line_bytes
        idx = line % self.sets
        lru = self.content[idx]
        if line in lru:
            lru.remove(line)
            lru.append(line)
            return True
        self.misses += 1
        if len(lru) == self.ways:
            lru.pop(0)
        lru.append(line)
        return False


class ReferenceRetentionCache:
    """Set-associative LRU cache whose blocks expire, kept deliberately
    plain: each set is a list of block records, and every access first
    invalidates the set's blocks whose lifetime has run out.

    A block's lifetime is (k-1)/k x retention in nanoseconds, counted from
    its fill or its last write; a read does not extend it. A dirty block is
    written back when it expires (an early write-back) and when it is
    evicted. Misses are classified against `ReferenceLru`: a miss is an
    expiration miss when an infinite-retention cache would have hit.
    """

    def __init__(self, sets, ways, line_bytes, lifetime_ns, read_cycles,
                 write_cycles, penalty_cycles):
        self.sets = [[] for _ in range(sets)]
        self.ways = ways
        self.line_bytes = line_bytes
        self.lifetime_ns = lifetime_ns
        self.read_cycles = read_cycles
        self.write_cycles = write_cycles
        self.penalty_cycles = penalty_cycles
        self.shadow = ReferenceLru(sets, ways, line_bytes)
        self.uses = 0
        self.counts = dict(read_hits=0, write_hits=0, read_misses=0,
                           write_misses=0, expiration_misses=0,
                           early_writebacks=0, writebacks=0, evictions=0)

    def _write_back(self, kind):
        self.counts[kind] += 1

    def access(self, addr, write, now_ns):
        """Stall cycles of one access at `now_ns`."""
        line = addr // self.line_bytes
        blocks = self.sets[line % len(self.sets)]
        for block in list(blocks):
            if now_ns >= block["filled_ns"] + self.lifetime_ns:
                blocks.remove(block)
                if block["dirty"]:
                    self._write_back("early_writebacks")
        infinite_hit = self.shadow.access(addr)
        self.uses += 1
        op = "write" if write else "read"
        latency = self.write_cycles if write else self.read_cycles
        for block in blocks:
            if block["line"] == line:
                self.counts[f"{op}_hits"] += 1
                block["used"] = self.uses
                if write:
                    block["dirty"] = True
                    block["filled_ns"] = now_ns
                return latency
        self.counts[f"{op}_misses"] += 1
        if infinite_hit:
            self.counts["expiration_misses"] += 1
        if len(blocks) == self.ways:
            victim = min(blocks, key=lambda b: b["used"])
            blocks.remove(victim)
            self.counts["evictions"] += 1
            if victim["dirty"]:
                self._write_back("writebacks")
        blocks.append(dict(line=line, dirty=write, filled_ns=now_ns,
                           used=self.uses))
        return latency + self.penalty_cycles

    def finish(self, now_ns):
        """Expire every block whose lifetime has run out, by the rule an
        access applies."""
        for blocks in self.sets:
            for block in list(blocks):
                if now_ns >= block["filled_ns"] + self.lifetime_ns:
                    blocks.remove(block)
                    if block["dirty"]:
                        self._write_back("early_writebacks")


def reference_run(events, sets, ways, line_bytes, retention_s, k, cpi,
                  freq_ghz, read_cycles, write_cycles, penalty_cycles,
                  limit=None, start=0):
    """Counters and cycles of an in-order run over `(gap, write, addr)`
    events, as a dict shaped like `CacheStats` plus `cycles`.

    The program is the events' instructions in order: `gap` non-memory
    instructions of `cpi` cycles each, then the access, which stalls for its
    latency (plus the miss penalty on a miss). `start` drops the first
    instructions and `limit` stops after that many more. Times are
    `cycles * (1 / freq_ghz)` nanoseconds, the float form the simulator's
    results are pinned to.
    """
    lifetime = retention_s * 1e9 / k * (k - 1)
    cache = ReferenceRetentionCache(sets, ways, line_bytes, lifetime,
                                    read_cycles, write_cycles, penalty_cycles)
    ns_per_cycle = 1.0 / freq_ghz
    budget = float("inf") if limit is None else limit
    cycles = 0.0
    skipped = 0  # instructions before `start` seen so far
    done = 0  # instructions run
    for gap, write, addr in events:
        skip = min(gap + 1, start - skipped)
        skipped += skip
        if skip == gap + 1:
            continue
        run_gap = min(gap - skip, budget - done)
        cycles += run_gap * cpi
        done += run_gap
        if done == budget:
            break
        cycles += cache.access(addr, write, cycles * ns_per_cycle)
        done += 1
        if done == budget:
            break
    cache.finish(cycles * ns_per_cycle)

    counts = cache.counts
    misses = counts["read_misses"] + counts["write_misses"]
    written_back = counts["writebacks"] + counts["early_writebacks"]
    counts.update(
        bus_read_requests=misses,
        bus_write_requests=written_back,
        mem_busy_read_cycles=misses * penalty_cycles,
        mem_busy_write_cycles=written_back * penalty_cycles,
        mem_read_hits=misses,
        shadow_misses=cache.shadow.misses)
    busy = counts["mem_busy_read_cycles"] + counts["mem_busy_write_cycles"]
    counts["mem_idle_cycles"] = int(max(0, cycles - busy))
    counts["cycles"] = cycles
    return counts


def reference_all_miss_writebacks(events, sets, ways, line_bytes, lifetime_ns,
                                  cpi, freq_ghz, read_cycles, write_cycles,
                                  penalty_cycles, tail=0):
    """(evictions, write-backs, early write-backs) of an in-order run over
    `(gap, write, addr)` events, followed by `tail` non-memory instructions,
    in which every access misses, by one pass over the run's access times.

    Every access stalls for its latency plus the miss penalty, so access i
    fills at a time that no cache state changes. Each set is a queue of
    fills: access i evicts the fill of the `ways`-th earlier access k of its
    set exactly when k's fill has not expired by i's time, and a dirty fill
    that expires by the end of the run and is not evicted is written back
    early. Times are `cycles * (1 / freq_ghz)` nanoseconds, as in
    `reference_run`.
    """
    ns_per_cycle = 1.0 / freq_ghz
    times, queues, victims = [], {}, []
    cycles = 0.0
    for gap, write, addr in events:
        cycles += gap * cpi
        times.append(cycles * ns_per_cycle)
        cycles += (write_cycles if write else read_cycles) + penalty_cycles
        queue = queues.setdefault(addr // line_bytes % sets, [])
        if len(queue) >= ways:
            k = queue[-ways]
            if times[-1] < times[k] + lifetime_ns:
                victims.append(k)
        queue.append(len(times) - 1)
    end_ns = (cycles + tail * cpi) * ns_per_cycle
    writes = [write for _, write, _ in events]
    evicted = set(victims)
    early = sum(1 for k, write in enumerate(writes)
                if write and k not in evicted
                and end_ns >= times[k] + lifetime_ns)
    return len(victims), sum(writes[k] for k in victims), early


def reference_sample(reuse_gaps, rng: random.Random) -> int:
    """One reuse gap: a bimodal mixture first picks its mode with
    `rng.random()`, then the gap is `rng.randint` over the mode."""
    if isinstance(reuse_gaps, BimodalGaps):
        if rng.random() < reuse_gaps.short_weight:
            return rng.randint(reuse_gaps.short_low, reuse_gaps.short_high)
        return rng.randint(reuse_gaps.long_low, reuse_gaps.long_high)
    return rng.randint(reuse_gaps.low, reuse_gaps.high)


def reference_gen_synthetic(params, name=None) -> Trace:
    """The synthetic generator as a heap of (due, block) popped and pushed
    once per access, drawing through `reference_sample`."""
    rng = random.Random(params.seed)
    blocks = params.working_set_blocks
    total = params.total_instructions

    heap = []
    spread = max(1, int(params.reuse_gaps.mean))
    for b in range(blocks):
        first = 1 + rng.randrange(spread)
        heap.append((first, b))
    heapq.heapify(heap)

    gaps, writes, addrs = array("q"), bytearray(), array("Q")
    cursor = 0  # instructions emitted so far
    while heap:
        due, b = heapq.heappop(heap)
        at = max(due, cursor + 1)  # serialize same-instruction collisions
        if at > total:
            break
        gaps.append(at - cursor - 1)
        writes.append(rng.random() < params.write_fraction)
        addrs.append(params.base_addr + b * 64)  # one 64-byte line per block
        cursor = at
        heapq.heappush(heap, (at + reference_sample(params.reuse_gaps, rng), b))

    if not gaps:
        raise ValueError("parameters produced an empty trace; "
                         "total_instructions is shorter than the first reuse gap")
    gaps[-1] += total - cursor
    return Trace.from_columns(gaps, writes, addrs,
                              name=name or f"synth-{params.seed}")
