"""Reference models the benchmark checks the simulator against.

Written from the documented semantics, not from `sttsim.cache` or
`sttsim.engine`, and kept deliberately plain: per-set Python dicts, no
shared state with the package, no shortcuts.

* `ReferenceLru` is a set-associative LRU cache with infinite retention. Its
  miss count is what the simulator's shadow cache must report.
* `RetentionReference` is a retention-aware L1 with in-order timing:
  - a block lives `(k-1)/k * retention` after its fill or its last write
    (a write restores the cell, a read does not);
  - an access first drops the blocks of its set whose lifetime is over,
    writing dirty ones back;
  - at the end of a run every block whose lifetime is over is dropped the
    same way;
  - an access costs `ceil(freq * latency)` cycles, a miss adds the miss
    penalty, and every other instruction costs `base_cpi` cycles.
"""

from __future__ import annotations

import math

# Frequencies and published latencies are short decimals, so a product that
# is mathematically an integer can land a few ulps off it; such a product
# counts as that integer, as the cycle model documents.
_SNAP = 1e-9


def ceil_cycles(freq_ghz: float, latency_ns: float) -> int:
    """Cycles an access of `latency_ns` takes at `freq_ghz`: at least one."""
    product = freq_ghz * latency_ns
    if abs(product - round(product)) <= _SNAP:
        cycles = round(product)
    else:
        cycles = math.ceil(product)
    return max(int(cycles), 1) if latency_ns > 0 else int(cycles)


class ReferenceLru:
    """Infinite-retention set-associative LRU; counts misses only."""

    def __init__(self, sets: int, ways: int, line_bytes: int):
        self.sets = sets
        self.ways = ways
        self.line_bytes = line_bytes
        self.content = [[] for _ in range(sets)]  # most recently used last
        self.misses = 0

    def access(self, addr: int) -> bool:
        line = addr // self.line_bytes
        lines = self.content[line % self.sets]
        if line in lines:
            lines.remove(line)
            lines.append(line)
            return True
        self.misses += 1
        if len(lines) == self.ways:
            lines.pop(0)
        lines.append(line)
        return False


def lru_misses(events, sets: int, ways: int, line_bytes: int) -> int:
    """Misses of an infinite-retention LRU over `(gap, op, addr)` events."""
    ref = ReferenceLru(sets, ways, line_bytes)
    for _, _, addr in events:
        ref.access(addr)
    return ref.misses


class RetentionReference:
    """One core's L1 data cache with retention expiry and in-order timing.

    `counters` uses the field names of the simulator's statistics so the
    two can be compared one by one.
    """

    def __init__(self, *, sets: int, ways: int, line_bytes: int,
                 retention_s: float, k: int, freq_ghz: float,
                 hit_latency_ns: float, write_latency_ns: float,
                 miss_penalty_ns: float, base_cpi: float):
        self.sets = sets
        self.ways = ways
        self.line_bytes = line_bytes
        self.base_cpi = base_cpi
        self.volatile = not math.isinf(retention_s)
        # (k-1)/k of the retention time, evaluated as (retention / k) * (k-1)
        # so that expiry instants agree with any model using that form to
        # the last bit.
        self.lifetime_ns = ((retention_s * 1e9) / k * (k - 1)
                            if self.volatile else math.inf)
        self.read_cycles = ceil_cycles(freq_ghz, hit_latency_ns)
        self.write_cycles = ceil_cycles(freq_ghz, write_latency_ns)
        self.penalty = ceil_cycles(freq_ghz, miss_penalty_ns)
        # set -> {line: [dirty, filled_ns, last_use]}
        self.blocks = [dict() for _ in range(sets)]
        self.shadow = ReferenceLru(sets, ways, line_bytes)
        self.clock = 0
        self.counters = dict.fromkeys((
            "read_hits", "write_hits", "read_misses", "write_misses",
            "expiration_misses", "early_writebacks", "writebacks",
            "evictions", "bus_read_requests", "bus_write_requests",
            "mem_busy_read_cycles", "mem_busy_write_cycles",
            "mem_idle_cycles", "mem_read_hits", "shadow_misses"), 0)

    def _write_back(self, early: bool) -> None:
        c = self.counters
        c["early_writebacks" if early else "writebacks"] += 1
        c["bus_write_requests"] += 1
        c["mem_busy_write_cycles"] += self.penalty

    def access(self, addr: int, is_write: bool, now_ns: float) -> tuple[bool, int]:
        """(hit, stall cycles) of one access at simulated time `now_ns`."""
        c = self.counters
        line = addr // self.line_bytes
        blocks = self.blocks[line % self.sets]
        self.clock += 1

        if self.volatile:
            for tag in [t for t, b in blocks.items()
                        if now_ns >= b[1] + self.lifetime_ns]:
                if blocks.pop(tag)[0]:
                    self._write_back(early=True)
            shadow_hit = self.shadow.access(addr)
            c["shadow_misses"] = self.shadow.misses
        else:
            shadow_hit = False

        block = blocks.get(line)
        if block is not None:
            block[2] = self.clock
            if is_write:
                c["write_hits"] += 1
                block[0] = True
                block[1] = now_ns
                return True, self.write_cycles
            c["read_hits"] += 1
            return True, self.read_cycles

        if is_write:
            c["write_misses"] += 1
            stall = self.write_cycles + self.penalty
        else:
            c["read_misses"] += 1
            stall = self.read_cycles + self.penalty
        if shadow_hit:
            c["expiration_misses"] += 1
        elif not self.volatile:
            c["shadow_misses"] += 1
        if len(blocks) == self.ways:
            victim = min(blocks, key=lambda t: blocks[t][2])
            c["evictions"] += 1
            if blocks.pop(victim)[0]:
                self._write_back(early=False)
        c["mem_read_hits"] += 1
        c["bus_read_requests"] += 1
        c["mem_busy_read_cycles"] += self.penalty
        blocks[line] = [is_write, now_ns, self.clock]
        return False, stall

    def finish(self, now_ns: float) -> None:
        """Drop every block whose lifetime is over at the end of the run."""
        if not self.volatile:
            return
        for blocks in self.blocks:
            for tag in [t for t, b in blocks.items()
                        if now_ns - b[1] >= self.lifetime_ns]:
                if blocks.pop(tag)[0]:
                    self._write_back(early=True)


def reference_run(events, core, freq_ghz: float) -> dict:
    """Counters, cycles and wall time of a whole trace on `core` from cold.

    `events` are `(gap, op, addr)` triples, `op` being "R" or "W"; `core` is
    read only for its published parameters.
    """
    geo = core.geometry
    tech = core.data_tech
    ref = RetentionReference(
        sets=geo.capacity_bytes // (geo.line_bytes * geo.ways),
        ways=geo.ways, line_bytes=geo.line_bytes,
        retention_s=tech.retention_time, k=core.counter_states_k,
        freq_ghz=freq_ghz, hit_latency_ns=tech.hit_latency_ns,
        write_latency_ns=tech.write_latency_ns,
        miss_penalty_ns=core.miss_penalty_ns, base_cpi=core.base_cpi)
    ns_per_cycle = 1.0 / freq_ghz
    cycles = 0.0
    instructions = accesses = 0
    for gap, op, addr in events:
        if gap:
            cycles += gap * ref.base_cpi
        _, stall = ref.access(addr, op == "W", cycles * ns_per_cycle)
        cycles += stall
        instructions += gap + 1
        accesses += 1
    ref.finish(cycles * ns_per_cycle)
    counters = ref.counters
    busy = counters["mem_busy_read_cycles"] + counters["mem_busy_write_cycles"]
    counters["mem_idle_cycles"] = int(max(0, cycles - busy))
    return {"counters": counters, "cycles": cycles,
            "wall_time_s": cycles * ns_per_cycle * 1e-9,
            "instructions": instructions, "accesses": accesses}


def fastest_core(cores):
    """The core deadlines are measured on: highest frequency cap, then the
    fewest write cycles at that cap, then the first listed."""
    def key(indexed):
        i, core = indexed
        cap = core.dvfs.max_freq_ghz
        return (-cap, ceil_cycles(cap, core.data_tech.write_latency_ns), i)
    return min(enumerate(cores), key=key)[1]


def oracle_label(rows, slack: float, core_order) -> str:
    """Best core under a slack: the least energy among rows whose wall time
    is within (1 + slack) of the fastest row's, ties to the faster row, then
    to the earlier core. `rows` are (core_id, wall_time_s, energy_j)."""
    fastest = min(wall for _, wall, _ in rows)
    limit = math.inf if math.isinf(slack) else fastest * (1.0 + slack)
    feasible = [r for r in rows if r[1] <= limit]
    best = min(feasible, key=lambda r: (r[2], r[1], core_order.index(r[0])))
    return best[0]
