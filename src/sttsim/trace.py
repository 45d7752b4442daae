"""Memory-access traces: the columnar representation, text parsing and
serialization, and synthetic generation.

Trace files are plain text, one access per line:

    <gap> <R|W> <0xaddress>

where `gap` is the number of non-memory instructions executed before the
access. Lines starting with `#` are comments; the generator writes its
parameters into a header comment. Round-trips are bit-exact at the event
level.

In memory a trace is three columns with one entry per access: the gaps
(signed 64-bit, so each below 2**63), the write flags (one byte each, 0 or
1) and the addresses (unsigned 64-bit, so each below 2**64). Nothing on the
simulation path makes an object per access; `Trace.events` presents the
columns as `TraceEvent`s, made one at a time when read.
"""

from __future__ import annotations

import heapq
import io
import operator
import random
import re
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, TextIO

from .config import ENCODING, ConfigError, read_input

READ = "R"
WRITE = "W"
_OPS = (READ, WRITE)  # indexed by the write flag
GAP_LIMIT = 1 << 63
ADDR_LIMIT = 1 << 64


@dataclass(frozen=True)
class TraceEvent:
    """One access, as `Trace.events` presents it."""

    gap: int
    op: str  # READ | WRITE
    addr: int

    def __post_init__(self):
        if not 0 <= self.gap < GAP_LIMIT:
            raise ValueError(f"gap must be in [0, 2**63), got {self.gap}")
        if self.op not in _OPS:
            raise ValueError(f"op must be R or W, got {self.op!r}")
        if not 0 <= self.addr < ADDR_LIMIT:
            raise ValueError(f"address must be in [0, 2**64), got {self.addr}")


def _event(gap: int, write: int, addr: int) -> TraceEvent:
    return TraceEvent(gap, _OPS[write], addr)


class Trace:
    """One application's accesses, stored column by column.

    `gaps` (`array('q')`), `writes` (`bytes` of 0/1 flags) and `addrs`
    (`array('Q')`) hold one entry per access. `instructions`, every access
    plus its preceding gap, is counted once at construction. Readers share
    the columns and must not mutate them.

    `_passes` and `_windows` hold the engine's memos of what no frequency
    changes about the trace's runs. Both die with the trace and take no part
    in equality.
    """

    __slots__ = ("name", "gaps", "writes", "addrs", "instructions",
                 "_passes", "_windows")

    def __init__(self, events: Iterable[TraceEvent], name: str = "trace"):
        gaps, writes, addrs = array("q"), bytearray(), array("Q")
        for e in events:
            gaps.append(e.gap)
            writes.append(e.op == WRITE)
            addrs.append(e.addr)
        self._adopt(name, gaps, bytes(writes), addrs)

    @classmethod
    def from_columns(cls, gaps: Iterable[int], writes: Iterable[int],
                     addrs: Iterable[int], name: str = "trace") -> Trace:
        """A trace over copies of the given columns, so the caller's data
        stays its own, checked as `TraceEvent` checks one access. The
        builders in this module hand `_owning` the columns they made."""
        try:
            gaps, addrs = array("q", gaps), array("Q", addrs)
        except OverflowError:
            raise ValueError("gaps must be below 2**63 and addresses in "
                             "[0, 2**64)") from None
        return cls._owning(gaps, bytes(writes), addrs, name)

    @classmethod
    def _owning(cls, gaps: array, writes: bytes, addrs: array,
                name: str) -> Trace:
        """A trace that adopts the given columns, after the checks that their
        types (`array('q')`, `bytes`, `array('Q')`) leave open."""
        if not len(gaps) == len(writes) == len(addrs):
            raise ValueError("columns differ in length")
        if gaps and min(gaps) < 0:
            raise ValueError("gaps must be >= 0")
        if writes.translate(None, b"\x00\x01"):
            raise ValueError("write flags must be 0 or 1")
        trace = cls.__new__(cls)
        trace._adopt(name, gaps, writes, addrs)
        return trace

    def _adopt(self, name, gaps, writes, addrs) -> None:
        self.name = name
        self.gaps = gaps
        self.writes = writes
        self.addrs = addrs
        self.instructions = sum(gaps) + len(gaps)
        self._passes = {}
        self._windows = {}

    @property
    def events(self) -> Sequence[TraceEvent]:
        """The accesses as a read-only sequence of `TraceEvent`s, each made
        when it is read; nothing is kept on the trace."""
        return _EventView(self)

    def __len__(self):
        return len(self.gaps)

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.name == other.name and self.gaps == other.gaps
                and self.writes == other.writes and self.addrs == other.addrs)

    def __hash__(self):
        return hash((self.name, len(self), self.instructions))

    def __repr__(self):
        return (f"Trace(name={self.name!r}, accesses={len(self)}, "
                f"instructions={self.instructions})")


class _EventView(Sequence):
    """`Trace.events`: equal to a tuple of the same events."""

    __slots__ = ("_trace",)

    def __init__(self, trace: Trace):
        self._trace = trace

    def __len__(self):
        return len(self._trace)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(*index.indices(len(self)))))
        t = self._trace
        return _event(t.gaps[index], t.writes[index], t.addrs[index])

    def __iter__(self) -> Iterator[TraceEvent]:
        t = self._trace
        return map(_event, t.gaps, t.writes, t.addrs)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None

    def __repr__(self):
        return f"<{len(self)} events of {self._trace.name!r}>"


class TraceParseError(ConfigError):
    """A trace line that breaks the grammar, named by `line_no`."""


# The grammar of a trace line, shared by the bulk parse and the per-line check
# that words its errors. Whitespace is whatever str.split() splits on.
_SPACE = r"[^\S\n]"
_GAP = r"[0-9]+"
_ADDR = r"0[xX][0-9a-fA-F]+"
_LINE = rf"{_SPACE}*(?:{_GAP}{_SPACE}+[RW]{_SPACE}+{_ADDR}{_SPACE}*|#[^\n]*)?"
# A newline not followed by a grammatical line: searching `"\n" + block`
# finds the first bad line of the block, if any.
_BAD_LINE = re.compile(rf"\n(?!{_LINE}(?:\n|\Z))")
_COMMENTS = re.compile(rf"\n{_SPACE}*#[^\n]*")
_GAP_RE = re.compile(_GAP)
_ADDR_RE = re.compile(_ADDR)
_WRITE_FLAGS = bytes.maketrans(b"RW", b"\x00\x01")
# Characters read per bulk step; bounds the text and field strings alive at
# once. 64 Ki keeps them within about 1.1 MB and loads as fast as 1 Mi did.
_BLOCK_CHARS = 1 << 16


def _blocks(stream: TextIO) -> Iterator[str]:
    """The text as blocks of whole lines, each ending in a newline."""
    rest = ""
    while chunk := stream.read(_BLOCK_CHARS):
        head, newline, tail = chunk.rpartition("\n")
        if newline:
            yield rest + head + newline
            rest = tail
        else:
            rest += chunk
    if rest:
        yield rest + "\n"


def _ints(tokens: list[str], base: int) -> Iterator[int]:
    # Gaps and addresses repeat across a trace; convert each distinct one once.
    values = {token: int(token, base) for token in set(tokens)}
    return map(values.__getitem__, tokens)


def _extend_columns(text: str, gaps: array, writes: bytearray,
                    addrs: array) -> bool:
    """Append grammatical lines, each after a newline, to the columns; False
    when a value does not fit its column."""
    if "#" in text:
        text = _COMMENTS.sub("\n", text)
    fields = text.split()
    try:
        gaps.extend(_ints(fields[0::3], 10))
        addrs.extend(_ints(fields[2::3], 16))
    except (OverflowError, ValueError):
        return False
    writes.extend("".join(fields[1::3]).encode().translate(_WRITE_FLAGS))
    return True


def _line_error(line: str) -> str | None:
    """Why one line breaks the trace grammar, or None when it does not."""
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    parts = line.split()
    if len(parts) != 3:
        return f"expected 'gap op addr', got {line!r}"
    gap_s, op, addr_s = parts
    if not _GAP_RE.fullmatch(gap_s):
        return f"gap must be a decimal count, got {gap_s!r}"
    if op not in _OPS:
        return f"op must be R or W, got {op!r}"
    if addr_s[:2] not in ("0x", "0X"):
        return f"address must be 0x-hex, got {addr_s!r}"
    if not _ADDR_RE.fullmatch(addr_s):
        return f"bad hex address {addr_s!r}"
    try:
        too_big = int(gap_s) >= GAP_LIMIT
    except ValueError:  # more digits than int() converts
        too_big = True
    if too_big:
        return f"gap must be below 2**63, got {gap_s}"
    if int(addr_s, 16) >= ADDR_LIMIT:
        return f"address must be below 2**64, got {addr_s}"
    return None


def _first_error(block: str, first_line: int) -> TraceParseError:
    for line_no, line in enumerate(block.split("\n"), start=first_line):
        message = _line_error(line)
        if message is not None:
            return TraceParseError(line_no, message)
    raise AssertionError("the bulk parse rejected lines the per-line check accepts")


def parse_trace(stream: TextIO | str, name: str = "trace") -> Trace:
    """Parse trace text straight into columns, a block of lines at a time.

    When a block breaks the grammar or holds a value too large for its
    column, a per-line check of the same rules raises `TraceParseError`
    naming the first bad line.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    gaps, writes, addrs = array("q"), bytearray(), array("Q")
    first_line = 1
    for block in _blocks(stream):
        text = "\n" + block
        if _BAD_LINE.search(text) or not _extend_columns(text, gaps, writes, addrs):
            raise _first_error(block, first_line)
        first_line += block.count("\n")
    return Trace._owning(gaps, bytes(writes), addrs, name)


# Accesses formatted per piece of text; bounds the text alive at once.
# Smaller pieces measured no slower, and fewer short-lived strings at once
# keep the allocator's peak lower.
_CHUNK_LINES = 1 << 10


def _text_chunks(trace: Trace, header: Iterable[str]) -> Iterator[str]:
    """The canonical text in pieces: the header comments, then the access
    lines a chunk at a time."""
    head = "".join(f"# {h}\n" for h in header)
    if not head and not len(trace):
        head = "\n"  # the text of nothing at all is one blank line
    yield head
    accesses = zip(trace.gaps, trace.writes, trace.addrs)
    for _ in range(0, len(trace), _CHUNK_LINES):
        yield "".join([f"{gap} {_OPS[write]} 0x{addr:x}\n" for gap, write, addr
                       in islice(accesses, _CHUNK_LINES)])


def serialize_trace(trace: Trace, header: Iterable[str] = ()) -> str:
    """Canonical text form; `header` lines are emitted as leading comments."""
    return "".join(_text_chunks(trace, header))


def write_trace(trace: Trace, path, header: Iterable[str] = ()) -> None:
    """Write `serialize_trace`'s text without holding all of it at once."""
    with open(path, "w", **ENCODING) as fh:
        fh.writelines(_text_chunks(trace, header))


def load_trace(path) -> Trace:
    """Parse a trace file by `read_input`; an error names the file and line."""
    return read_input(path, lambda fh: parse_trace(fh, name=str(path)))


def _check_bounds(*bounds) -> None:
    if not all(isinstance(b, int) for b in bounds):
        raise ValueError(f"gap bounds must be integers, got {list(bounds)}")


@dataclass(frozen=True)
class UniformGaps:
    """Per-block reuse gaps drawn uniformly from [low, high] instructions."""

    low: int
    high: int

    def __post_init__(self):
        _check_bounds(self.low, self.high)
        if not 0 < self.low <= self.high:
            raise ValueError(f"need 0 < low <= high, got [{self.low}, {self.high}]")

    @property
    def mean(self) -> float:
        return (self.low + self.high) / 2

    def modes(self) -> tuple[None, tuple[int, int], tuple[int, int]]:
        """What `gen_synthetic` draws from: no mode weight, then the one mode
        twice, as (low, number of values)."""
        mode = (self.low, self.high - self.low + 1)
        return None, mode, mode

    def describe(self) -> str:
        return f"uniform low={self.low} high={self.high}"


@dataclass(frozen=True)
class BimodalGaps:
    """Short/long reuse-gap mixture: short mode with weight `short_weight`."""

    short_low: int
    short_high: int
    long_low: int
    long_high: int
    short_weight: float = 0.2

    def __post_init__(self):
        _check_bounds(self.short_low, self.short_high, self.long_low,
                      self.long_high)
        if not 0 < self.short_low <= self.short_high <= self.long_low <= self.long_high:
            raise ValueError("modes must satisfy 0 < short <= long")
        if not 0.0 <= self.short_weight <= 1.0:
            raise ValueError("short_weight must be in [0, 1]")

    @property
    def mean(self) -> float:
        short = (self.short_low + self.short_high) / 2
        long = (self.long_low + self.long_high) / 2
        return self.short_weight * short + (1 - self.short_weight) * long

    def modes(self) -> tuple[float, tuple[int, int], tuple[int, int]]:
        """What `gen_synthetic` draws from: the short-mode weight, then the
        short and long modes as (low, number of values)."""
        return (self.short_weight,
                (self.short_low, self.short_high - self.short_low + 1),
                (self.long_low, self.long_high - self.long_low + 1))

    def describe(self) -> str:
        return (f"bimodal short=[{self.short_low},{self.short_high}] "
                f"long=[{self.long_low},{self.long_high}] w={self.short_weight}")


@dataclass(frozen=True)
class SynthParams:
    """Knobs for the synthetic workload generator, each one it reads.

    Reuse gaps are measured in instructions, so the same trace exercises
    different expiry behavior at different clock frequencies. The realized
    memory-op fraction follows working_set_blocks / mean reuse gap; use
    `for_rate` to size the working set from a target fraction.
    """

    working_set_blocks: int
    reuse_gaps: UniformGaps | BimodalGaps
    write_fraction: float
    total_instructions: int
    seed: int
    line_bytes: int = 64
    base_addr: int = 0x10000

    def __post_init__(self):
        if self.working_set_blocks < 1:
            raise ValueError("working set needs at least one block")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        if self.total_instructions < 1:
            raise ValueError("total_instructions must be >= 1")
        if self.line_bytes < 1:
            raise ValueError("line_bytes must be >= 1")
        if self.base_addr < 0:
            raise ValueError("base_addr must be >= 0")
        if self.base_addr + (self.working_set_blocks - 1) * self.line_bytes >= 2**64:
            raise ValueError("base_addr + (working_set_blocks - 1) * line_bytes "
                             "must be < 2**64")

    @classmethod
    def for_rate(cls, reuse_gaps, memory_op_fraction, write_fraction,
                 total_instructions, seed, **kw) -> "SynthParams":
        """Size the working set so that `memory_op_fraction`, in (0, 1], of
        the instructions access memory at the reuse gaps' mean. The fraction
        only sizes the working set; the parameters do not keep it."""
        if not 0.0 < memory_op_fraction <= 1.0:
            raise ValueError("memory_op_fraction must be in (0, 1]")
        blocks = max(1, round(memory_op_fraction * reuse_gaps.mean))
        return cls(working_set_blocks=blocks, reuse_gaps=reuse_gaps,
                   write_fraction=write_fraction,
                   total_instructions=total_instructions, seed=seed, **kw)

    def describe(self) -> list[str]:
        return [
            f"synth seed={self.seed} blocks={self.working_set_blocks} "
            f"total={self.total_instructions}",
            f"synth gaps: {self.reuse_gaps.describe()}",
            f"synth write_fraction={self.write_fraction}",
        ]


def gen_synthetic(params: SynthParams, name: str | None = None) -> Trace:
    """Generate a trace whose per-block reuse gaps follow the configured
    distribution.

    Each block is an independent renewal process over virtual instruction
    time; accesses are emitted in time order, so realized per-block gaps
    equal the drawn values up to same-instruction collisions. Addresses
    stride by the line size so every block occupies its own cache line.

    A seed always yields the same trace. The draws come from
    `random.Random(seed)` in a fixed order: each block's first touch
    (`randrange`), then per access its write flag (`random`), for a bimodal
    mixture its mode (`random`), and its next reuse gap. A gap is `low + r`
    with `r` drawn by rejection over `getrandbits`, exactly as `randint`
    draws it.
    """
    rng = random.Random(params.seed)
    blocks = params.working_set_blocks
    total = params.total_instructions

    # Stagger first touches across one mean gap so accesses don't arrive in
    # a single burst at t=0.
    spread = max(1, int(params.reuse_gaps.mean))
    heap = [(1 + rng.randrange(spread), b) for b in range(blocks)]
    heapq.heapify(heap)

    weight, *modes = params.reuse_gaps.modes()
    short, long = [(low, n, n.bit_length()) for low, n in modes]
    bimodal = weight is not None
    write_fraction = params.write_fraction
    base, line = params.base_addr, params.line_bytes
    random_, getrandbits, heapreplace = rng.random, rng.getrandbits, heapq.heapreplace
    gaps, writes, addrs = array("q"), bytearray(), array("Q")
    gaps_append, writes_append, addrs_append = gaps.append, writes.append, addrs.append
    cursor = 0  # instructions emitted so far
    while True:
        due, b = heap[0]
        # Serialize same-instruction collisions.
        at = due if due > cursor else cursor + 1
        if at > total:
            break
        gaps_append(at - cursor - 1)
        writes_append(random_() < write_fraction)
        addrs_append(base + b * line)
        cursor = at
        low, n, k = short if bimodal and random_() < weight else long
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        # Blocks are unique, so replacing the root pops in the same order
        # as a pop followed by a push.
        heapreplace(heap, (at + low + r, b))

    if not gaps:
        raise ValueError("parameters produced an empty trace; "
                         "total_instructions is shorter than the first reuse gap")
    # Pin the final access to the last instruction so the trace length is
    # exactly total_instructions.
    gaps[-1] += total - cursor
    return Trace._owning(gaps, bytes(writes), addrs,
                         name or f"synth-{params.seed}")


def concat_traces(*traces: Trace, name: str | None = None) -> Trace:
    """Join traces back to back; later segments keep their gap structure, so
    a phase change is simply two generated traces concatenated."""
    if not any(len(t) for t in traces):
        raise ValueError("nothing to concatenate")
    gaps, addrs = array("q"), array("Q")
    for t in traces:
        gaps.extend(t.gaps)
        addrs.extend(t.addrs)
    return Trace._owning(gaps, b"".join(t.writes for t in traces), addrs,
                         name or traces[0].name)
