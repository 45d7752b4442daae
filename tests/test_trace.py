import hashlib
import random
import string
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sttsim import (BimodalGaps, Constraint, CorePredictor, Scheduler, SRAM,
                    SynthParams, Trace, TraceEvent, TraceParseError,
                    UniformGaps, default_system, exhaustive_sweep,
                    gen_synthetic, load_trace, parse_trace, serialize_trace,
                    simulate_run, write_trace)
from sttsim import trace as trace_module
from sttsim.config import make_core
from sttsim.constraints import KINDS
from sttsim.trace import READ, WRITE, concat_traces

from reference import reference_gen_synthetic
from workloads import ARCHETYPES, archetype_params, phase_change_app


def random_trace(seed, events=100, addr_span=40):
    rng = random.Random(seed)
    evs = [TraceEvent(rng.randrange(0, 2000),
                      WRITE if rng.random() < 0.4 else READ,
                      0x8000 + 64 * rng.randrange(addr_span))
           for _ in range(events)]
    return Trace(tuple(evs), name=f"rand-{seed}")


class TestParsing:
    def test_single_line(self):
        tr = parse_trace("12 R 0x7f00\n")
        assert tr.events == (TraceEvent(12, READ, 0x7F00),)

    def test_empty_file(self):
        assert parse_trace("") == Trace(())

    def test_comments_and_blanks_skipped(self):
        tr = parse_trace("# header\n\n3 W 0x40\n  # another\n0 R 0x80\n")
        assert [e.op for e in tr.events] == [WRITE, READ]

    @pytest.mark.parametrize("bad, line", [
        ("1 R 0x10\nnope\n", 2),
        ("1 X 0x10\n", 1),
        ("-1 R 0x10\n", 1),
        ("1 R 77\n", 1),
        ("1 R 0xZZ\n", 1),
        ("1 R 0x10 extra\n", 1),
        ("# c\n1 R 0x10\n\u00b2 W 0x20\n", 3),
        ("1 R 0x10\n1 W 0x10000000000000000\n", 2),
        ("9223372036854775808 R 0x10\n", 1),
        ("1 R 0x1_0\n", 1),
    ])
    def test_malformed_lines_carry_numbers(self, bad, line):
        with pytest.raises(TraceParseError) as err:
            parse_trace(bad)
        assert err.value.line_no == line
        assert f"line {line}" in str(err.value)

    def test_address_limit_is_64_bits(self):
        tr = parse_trace("0 W 0xFFFFFFFFFFFFFFFF\n1 R 0X7fffffffffffffff\n")
        assert [e.addr for e in tr.events] == [2**64 - 1, 2**63 - 1]
        with pytest.raises(TraceParseError, match="line 2: address must be "
                                                  "below 2\\*\\*64"):
            parse_trace("0 W 0x10\n0 R 0x10000000000000000\n")

    def test_load_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("# header\n1 R 0x10\n\u00b2 W 0x20\n")
        with pytest.raises(TraceParseError) as err:
            load_trace(path)
        assert err.value.line_no == 3 and err.value.path == path
        assert str(err.value).startswith(f"{path}: line 3: gap must be")

    def test_bytes_that_are_not_utf8_fail_their_line(self, tmp_path):
        path = tmp_path / "bin.trace"
        path.write_bytes(b"# \xfe header\n0 R 0x10\n1 W 0x\xff20\n")
        with pytest.raises(TraceParseError) as err:
            load_trace(path)
        assert err.value.line_no == 3 and err.value.path == path

    def test_round_trip(self):
        for seed in range(5):
            tr = random_trace(seed)
            assert parse_trace(serialize_trace(tr), name=tr.name) == tr

    def test_header_comments_do_not_break_round_trip(self):
        tr = random_trace(9)
        text = serialize_trace(tr, header=["one", "two"])
        assert parse_trace(text, name=tr.name) == tr

    def test_written_file_is_the_serialized_text(self, tmp_path):
        p = SynthParams.for_rate(UniformGaps(300, 500), 0.25, 0.5, 80_000, 4)
        tr = gen_synthetic(p)
        assert len(tr) > trace_module._CHUNK_LINES  # written in several pieces
        header = ["one", "two"]
        expected = "\n".join([f"# {h}" for h in header] + [
            f"{e.gap} {e.op} 0x{e.addr:x}" for e in tr.events]) + "\n"
        path = tmp_path / "long.trace"
        write_trace(tr, path, header)
        assert path.read_text() == serialize_trace(tr, header) == expected
        assert serialize_trace(Trace(())) == "\n"


class TestGenerator:
    def test_deterministic_bytes(self):
        p = SynthParams.for_rate(UniformGaps(500, 900), 0.1, 0.3, 50_000, 42)
        a = serialize_trace(gen_synthetic(p))
        b = serialize_trace(gen_synthetic(p))
        assert a == b

    def test_output_parses(self):
        p = SynthParams.for_rate(UniformGaps(200, 400), 0.2, 0.5, 20_000, 7)
        tr = gen_synthetic(p)
        assert parse_trace(serialize_trace(tr), name=tr.name) == tr

    def test_zero_write_fraction(self):
        p = SynthParams.for_rate(UniformGaps(300, 500), 0.1, 0.0, 30_000, 3)
        assert all(e.op == READ for e in gen_synthetic(p).events)

    def test_total_instructions_exact(self):
        p = SynthParams.for_rate(UniformGaps(300, 500), 0.1, 0.4, 30_000, 5)
        assert gen_synthetic(p).instructions == 30_000

    def test_addresses_stride_by_line(self):
        p = SynthParams(working_set_blocks=10, reuse_gaps=UniformGaps(50, 80),
                        write_fraction=0.2, total_instructions=5_000, seed=1)
        addrs = {e.addr for e in gen_synthetic(p).events}
        assert addrs == {0x10000 + 64 * b for b in range(10)}

    def test_reuse_gaps_match_distribution(self):
        gaps = UniformGaps(900, 1100)
        p = SynthParams.for_rate(gaps, 0.05, 0.3, 200_000, 11)
        tr = gen_synthetic(p)
        last, samples = {}, []
        pos = 0
        for e in tr.events:
            pos += e.gap + 1
            if e.addr in last:
                samples.append(pos - last[e.addr])
            last[e.addr] = pos
        mean = sum(samples) / len(samples)
        assert abs(mean - gaps.mean) / gaps.mean < 0.05
        assert min(samples) >= gaps.low

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SynthParams(0, UniformGaps(10, 20), 0.5, 100, 1)
        with pytest.raises(ValueError):
            SynthParams(1, UniformGaps(10, 20), 1.5, 100, 1)
        for fraction in (0.0, 1.5):
            with pytest.raises(ValueError, match="memory_op_fraction"):
                SynthParams.for_rate(UniformGaps(10, 20), fraction, 0.5, 100, 1)
        with pytest.raises(ValueError):
            UniformGaps(20, 10)
        with pytest.raises(ValueError):
            BimodalGaps(100, 50, 200, 300)
        with pytest.raises(ValueError, match="integers"):
            UniformGaps(10.0, 20)
        with pytest.raises(ValueError, match="integers"):
            BimodalGaps(1, 2, 3, 4.5)
        for field, kw in (("base_addr", {"base_addr": -64}),
                          ("base_addr", {"base_addr": 2**64 - 64})):
            with pytest.raises(ValueError, match=field):
                SynthParams(2, UniformGaps(10, 20), 0.5, 100, 1, **kw)
        top = SynthParams(2, UniformGaps(10, 20), 0.5, 100, 1,
                          base_addr=2**64 - 128)
        assert max(gen_synthetic(top).addrs) == 2**64 - 64

    def test_lifetime_control_raises_expirations(self, power):
        # Longer long-mode gaps push reuse past the monitor lifetime on a
        # finite-retention core while SRAM misses stay put.
        sys_ = default_system()
        core4 = sys_.core("core4")
        sram = make_core("core1", SRAM)
        seen = []
        for long_lo, long_hi in ((150_000, 200_000), (500_000, 700_000)):
            gaps = BimodalGaps(20_000, 30_000, long_lo, long_hi, 0.3)
            p = SynthParams(working_set_blocks=350, reuse_gaps=gaps,
                            write_fraction=0.2, total_instructions=2_500_000,
                            seed=77)
            tr = gen_synthetic(p)
            run = simulate_run(tr, core4, 2.0, power)
            sram_run = simulate_run(tr, sram, 2.0, power)
            seen.append((run.stats.expiration_misses, sram_run.stats.misses))
        (exp_short, sram_short), (exp_long, sram_long) = seen
        assert exp_long > exp_short
        assert sram_short == 350 and sram_long == 350

    def test_measured_lifetime_tracks_configured_mean(self, power):
        # Replay on the longest-retention core and measure wall-clock reuse
        # gaps; they should track the configured mixture mean converted at
        # the realized cycles-per-instruction rate.
        gaps = BimodalGaps(8_000, 12_000, 45_000, 55_000, 0.2)
        p = SynthParams.for_rate(gaps, 0.01, 0.5, 2_000_000, seed=21)
        tr = gen_synthetic(p)
        core4 = default_system().core("core4")
        freq = 2.0
        run = simulate_run(tr, core4, freq, power)
        cpi = run.cycles / run.instructions
        expected_ns = gaps.mean * cpi / freq

        last, samples = {}, []
        pos = 0
        for e in tr.events:
            pos += e.gap + 1
            if e.addr in last:
                samples.append((pos - last[e.addr]) * cpi / freq)
            last[e.addr] = pos
        measured = sum(samples) / len(samples)
        assert abs(measured - expected_ns) / expected_ns < 0.10


class TestStats:
    def test_concat(self):
        a, b = random_trace(1, events=10), random_trace(2, events=5)
        joined = concat_traces(a, b, name="joined")
        assert len(joined) == 15
        assert joined.instructions == a.instructions + b.instructions


def gap_sum(trace):
    return sum(e.gap + 1 for e in trace.events)


class TestColumns:
    def test_instructions_counted_once_at_construction(self):
        built = random_trace(3, events=60)
        parsed = parse_trace(serialize_trace(built))
        generated = gen_synthetic(
            SynthParams.for_rate(UniformGaps(200, 400), 0.2, 0.5, 20_000, 7))
        joined = concat_traces(built, generated)
        for tr in (built, parsed, generated, joined, Trace(())):
            assert tr.instructions == gap_sum(tr)
        assert generated.instructions == 20_000

    def test_column_types(self):
        tr = random_trace(5, events=20)
        assert (tr.gaps.typecode, tr.addrs.typecode) == ("q", "Q")
        assert isinstance(tr.writes, bytes)
        assert list(tr.writes) == [e.op == WRITE for e in tr.events]

    def test_events_view(self):
        tr = random_trace(6, events=30)
        events = tuple(tr.events)
        assert tr.events == events and events == tr.events
        assert tr.events != events[:-1]
        assert len(tr.events) == 30
        assert tr.events[-1] == events[-1] and tr.events[3:7] == events[3:7]
        assert tr.events is not tr.events

    def test_from_columns_checks_like_an_event(self):
        with pytest.raises(ValueError):
            Trace.from_columns([1, 2], b"\x00", [0, 64])
        with pytest.raises(ValueError):
            Trace.from_columns([-1], b"\x00", [0])
        with pytest.raises(ValueError):
            Trace.from_columns([1], b"\x02", [0])
        with pytest.raises(ValueError):
            Trace.from_columns([1], b"\x01", [2**64])
        with pytest.raises(ValueError):
            TraceEvent(0, READ, 2**64)

    def test_from_columns_copies_its_input(self):
        src = random_trace(8, events=10)
        tr = Trace.from_columns(src.gaps, src.writes, src.addrs, name=src.name)
        assert tr == src and tr.gaps is not src.gaps
        src.gaps[0] += 1
        src.addrs[0] += 64
        assert (tr.gaps[0], tr.addrs[0]) == (src.gaps[0] - 1, src.addrs[0] - 64)


# 94,577 accesses: 1.61 MB of columns, 17 bytes per access.
BIG = SynthParams.for_rate(UniformGaps(2, 40), 0.25, 0.5, 400_000, 11)


def column_bytes(trace):
    return (trace.gaps.itemsize * len(trace) + len(trace.writes)
            + trace.addrs.itemsize * len(trace))


def traced_peak(fn, *args):
    """`fn(*args)` and the most memory it held allocated at once."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        return fn(*args), tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestMemory:
    """Building a trace holds its columns once, plus bounded scratch."""

    def test_load_holds_the_columns_and_one_block(self, tmp_path):
        path = tmp_path / "big.trace"
        write_trace(gen_synthetic(BIG), path)
        tr, peak = traced_peak(load_trace, path)
        assert len(tr) == 94_577
        assert peak <= column_bytes(tr) + (1 << 20)

    def test_generation_holds_its_columns_once(self):
        tr, peak = traced_peak(gen_synthetic, BIG)
        assert len(tr) == 94_577
        assert peak <= 1.5 * column_bytes(tr)


# -- differential tests against a plain per-line reading ----------------------

HEX = set(string.hexdigits)


def reference_parse(text):
    """The events of `text` as (gap, op, addr), or the number of its first
    bad line, read one line at a time with str methods only."""
    events = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) != 3:
            return line_no
        gap, op, addr = fields
        digits = addr[2:]
        if not (gap.isascii() and gap.isdigit()) or op not in (READ, WRITE) \
                or addr[:2] not in ("0x", "0X") or not digits \
                or not set(digits) <= HEX:
            return line_no
        if int(gap) >= 2**63 or int(digits, 16) >= 2**64:
            return line_no
        events.append((int(gap), op, int(digits, 16)))
    return events


SPACE = st.text(" \t", min_size=1, max_size=3)
GOOD_LINE = st.builds(
    lambda lead, gap, sep1, op, sep2, prefix, addr, upper, trail:
        f"{lead}{gap}{sep1}{op}{sep2}{prefix}"
        f"{(f'{addr:X}' if upper else f'{addr:x}')}{trail}",
    st.sampled_from(["", " ", "\t "]),
    st.one_of(st.integers(0, 5000), st.integers(0, 2**63 - 1),
              st.just(2**63)).map(str) | st.sampled_from(["007", "0"]),
    SPACE, st.sampled_from([READ, WRITE]), SPACE,
    st.sampled_from(["0x", "0X"]),
    st.one_of(st.integers(0, 2**20), st.integers(0, 2**64 - 1),
              st.integers(2**64, 2**66)),
    st.booleans(), st.sampled_from(["", " ", "\t", "\r"]))
BAD_LINE = st.sampled_from([
    "nope", "1 R", "1 R 0x10 extra", "-1 R 0x10", "+1 R 0x10", "1_0 R 0x10",
    "\u00b2 W 0x20", "\u0663 R 0x10", "1 X 0x10", "1 r 0x10", "1 RW 0x10",
    "1 R 77", "1 R 0xZZ", "1 R 0x", "1 R 0x1_0", "1 R 0x-1", "1 R x10",
    "1 R 0x10 # trailing", "1\u00a0R 0x10 0",
])
OTHER_LINE = st.one_of(
    st.just(""), SPACE, st.text(" \t#abc", max_size=8).map(lambda t: "#" + t),
    st.text(st.characters(blacklist_characters="\n"), max_size=12))
LINES = st.lists(st.one_of(GOOD_LINE, GOOD_LINE, BAD_LINE, OTHER_LINE),
                 max_size=30)


def trace_text(lines, crlf, final_newline):
    end = "\r\n" if crlf else "\n"
    return end.join(lines) + (end if final_newline and lines else "")


class TestDifferential:
    @settings(max_examples=300, deadline=None)
    @given(LINES, st.booleans(), st.booleans(),
           st.sampled_from([trace_module._BLOCK_CHARS, 5]))
    def test_bulk_parse_matches_per_line_reading(self, lines, crlf,
                                                 final_newline, block_chars):
        text = trace_text(lines, crlf, final_newline)
        expected = reference_parse(text)
        with mock.patch.object(trace_module, "_BLOCK_CHARS", block_chars):
            if isinstance(expected, int):
                with pytest.raises(TraceParseError) as err:
                    parse_trace(text)
                assert err.value.line_no == expected
                assert str(err.value).startswith(f"line {expected}: ")
            else:
                tr = parse_trace(text)
                assert [(e.gap, e.op, e.addr) for e in tr.events] == expected
                assert tr.instructions == sum(g + 1 for g, _, _ in expected)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(GOOD_LINE.filter(lambda line: not line.endswith("\r")),
                    min_size=1, max_size=10), st.booleans())
    def test_files_read_with_universal_newlines(self, tmp_path_factory, lines,
                                                crlf):
        # A file is read with universal newlines, so CRLF (or a lone CR)
        # ends a line; a string is split on LF only.
        text = trace_text(lines, crlf, True)
        path = tmp_path_factory.mktemp("t") / "x.trace"
        path.write_bytes(text.encode())
        expected = reference_parse(text)
        if isinstance(expected, int):
            with pytest.raises(TraceParseError) as err:
                load_trace(path)
            assert err.value.line_no == expected and err.value.path == path
        else:
            assert load_trace(path) == parse_trace(text, name=str(path))

    def test_a_bad_line_past_the_third_block_names_its_line(self, tmp_path):
        good = "12 R 0x7f00\n"  # 12 characters: blocks end inside a line
        lines = 3 * trace_module._BLOCK_CHARS // len(good) + 100
        path = tmp_path / "late.trace"
        path.write_text(good * lines + "1 R 0xZZ\n" + good * 10)
        with pytest.raises(TraceParseError) as err:
            load_trace(path)
        assert (err.value.line_no, err.value.path) == (lines + 1, path)
        assert err.value.message == "bad hex address '0xZZ'"


EVENTS = st.lists(st.builds(TraceEvent, st.integers(0, 2**63 - 1),
                            st.sampled_from([READ, WRITE]),
                            st.integers(0, 2**64 - 1)), max_size=40)
# How an access line may be spelled other than as `write_trace` spells it:
# leading zeros of the gap, whitespace between fields, the address prefix,
# upper-case hex digits, and the comment or blank lines before it.
RESPELLINGS = st.tuples(
    st.sampled_from(["", "0", "000"]), st.sampled_from([" ", "\t", "  \t "]),
    st.sampled_from(["0x", "0X"]), st.booleans(),
    st.sampled_from(["", "\n", "# note\n", " \t\n", "\t# 1 R 0x10\n"]))


class TestCanonicalBlocks:
    """A block of the text that `write_trace` emits passes the grammar in
    one match; any other text takes the per-line grammar, to the same trace
    or the same error."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(EVENTS.filter(len), st.text(max_size=5),
           st.lists(RESPELLINGS, min_size=40, max_size=40), st.booleans())
    def test_respelled_text_parses_to_the_same_trace(self, events, name,
                                                     spellings, crlf):
        tr = Trace(tuple(events), name=name)
        canonical = serialize_trace(tr)
        assert trace_module._CANON.fullmatch(canonical)
        lines = [f"{before}{zeros}{e.gap}{sep}{e.op}{sep}{prefix}"
                 f"{f'{e.addr:X}' if upper else f'{e.addr:x}'}\n"
                 for e, (zeros, sep, prefix, upper, before)
                 in zip(tr.events, spellings)]
        text = "".join(lines)
        if crlf:
            text = text.replace("\n", "\r\n")
        for parsed in (parse_trace(canonical, name=name),
                       parse_trace(text, name=name)):
            assert parsed == tr and parsed.instructions == tr.instructions

    @pytest.mark.parametrize("bad, message", [
        ("1 R 0xZZ", "bad hex address '0xZZ'"),
        ("1 X 0x10", "op must be R or W, got 'X'"),
        ("1 R 0x10 extra", "expected 'gap op addr', got '1 R 0x10 extra'"),
        ("1 R 0x10000000000000000",
         "address must be below 2**64, got 0x10000000000000000"),
        ("9223372036854775808 R 0x10",
         "gap must be below 2**63, got 9223372036854775808"),
    ], ids=["hex", "op", "fields", "address-2**64", "gap-2**63"])
    def test_a_bad_line_in_a_canonical_block_names_its_line(self, bad,
                                                             message):
        # The last two lines are spelled canonically, and only their values
        # are out of range.
        lines = serialize_trace(random_trace(7)).splitlines(keepends=True)
        with pytest.raises(TraceParseError) as err:
            parse_trace("".join(lines[:60]) + bad + "\n" + "".join(lines[60:]))
        assert (err.value.line_no, err.value.message) == (61, message)


class TestColumnsRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(EVENTS, st.text(max_size=5))
    def test_serialize_parse_and_events_round_trip(self, events, name):
        tr = Trace(tuple(events), name=name)
        assert tr.events == tuple(events)
        assert parse_trace(serialize_trace(tr, header=["h"]), name=name) == tr
        assert Trace(tr.events, name=name) == tr
        assert tr.instructions == gap_sum(tr)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(EVENTS, min_size=1, max_size=4))
    def test_concat_matches_concatenated_events(self, parts):
        traces = [Trace(tuple(p), name=f"p{i}") for i, p in enumerate(parts)]
        flat = tuple(e for p in parts for e in p)
        if not flat:
            with pytest.raises(ValueError):
                concat_traces(*traces)
            return
        joined = concat_traces(*traces)
        assert joined == Trace(flat, name="p0")
        assert joined.instructions == sum(t.instructions for t in traces)


class ColumnsOnly(Trace):
    """A trace whose event view fails: the hot paths must not touch it."""

    @property
    def events(self):
        raise AssertionError("read .events")


def test_hot_paths_read_only_columns(power):
    system = default_system()
    src = gen_synthetic(SynthParams.for_rate(UniformGaps(300, 500), 0.05, 0.3,
                                             60_000, 4), name="cols")
    tr = ColumnsOnly.from_columns(src.gaps, src.writes, src.addrs, name=src.name)
    core = system.core("core3")
    for limit, start in ((None, 0), (10_000, 0), (None, 12_345)):
        assert simulate_run(tr, core, 2.0, power, limit=limit, start=start) \
            == simulate_run(src, core, 2.0, power, limit=limit, start=start)
    sweep = exhaustive_sweep(tr, system, power, Constraint("slack10"))
    assert sweep == exhaustive_sweep(src, system, power, Constraint("slack10"))
    model = CorePredictor(feature_names=("l1d_hits",),
                          label_order=tuple(system.labels())).fit([[0.0]], ["core1"])
    sched = Scheduler(system, power, {kind: model for kind in KINDS},
                      profiling_interval=10_000)
    for _ in range(2):  # a fresh decision, then a history hit
        sched.run_application(tr, Constraint("slack10"))
    sched.dispatch_workload([tr], Constraint("slack10"))


# -- the generator against the plain heap + randint reference -----------------

# Widths of a gap range, `high - low + 1`: one value, powers of two and one
# past them, where `getrandbits` rejects most often, and anything else.
WIDTHS = st.one_of(st.just(1), st.integers(0, 12).map(lambda k: 1 << k),
                   st.integers(0, 12).map(lambda k: (1 << k) + 1),
                   st.integers(1, 3000))
UNIFORM_GAPS = st.builds(lambda low, width: UniformGaps(low, low + width - 1),
                         st.integers(1, 2000), WIDTHS)


def bimodal_gaps(short_low, short_width, jump, long_width, weight):
    short_high = short_low + short_width - 1
    long_low = short_high + jump
    return BimodalGaps(short_low, short_high, long_low,
                       long_low + long_width - 1, weight)


BIMODAL_GAPS = st.builds(bimodal_gaps, st.integers(1, 500), WIDTHS,
                         st.integers(0, 2000), WIDTHS,
                         st.one_of(st.just(0.0), st.just(1.0), st.floats(0, 1)))
SYNTH_PARAMS = st.builds(
    SynthParams,
    working_set_blocks=st.integers(1, 30),
    reuse_gaps=st.one_of(UNIFORM_GAPS, BIMODAL_GAPS),
    write_fraction=st.one_of(st.just(0.0), st.just(1.0), st.floats(0, 1)),
    # Short totals often end before the first touch: an empty trace.
    total_instructions=st.one_of(st.integers(1, 50), st.integers(1, 6000)),
    seed=st.integers(0, 2**64),
    base_addr=st.integers(0, 2**48))


def test_generator_draws_the_reference_stream():
    seen = set()

    @settings(max_examples=300, deadline=None)
    @given(SYNTH_PARAMS)
    # One value, a power of two and one past it, each with one mode and
    # with a mixture at weight 0 and 1.
    @example(SynthParams(5, UniformGaps(7, 7), 0.5, 20_000, 7))
    @example(SynthParams(5, BimodalGaps(64, 127, 127, 383, 0.0), 0.5, 20_000,
                         64, base_addr=0x1234))
    @example(SynthParams(5, BimodalGaps(65, 193, 193, 449, 1.0), 0.5, 20_000,
                         65, base_addr=0x1234))
    def check(params):
        try:
            expected = reference_gen_synthetic(params, name="g")
        except ValueError as exc:
            seen.add("empty")
            with pytest.raises(ValueError) as err:
                gen_synthetic(params, name="g")
            assert str(err.value) == str(exc)
            return
        seen.add(type(params.reuse_gaps).__name__)
        got = gen_synthetic(params, name="g")
        assert got.gaps == expected.gaps
        assert got.writes == expected.writes
        assert got.addrs == expected.addrs
        assert got == expected

    check()
    assert seen == {"empty", "UniformGaps", "BimodalGaps"}


# SHA-256 of `serialize_trace` of the A-D archetypes, each drawn with uniform
# and with bimodal gaps, at seeds 1 and 2: pins the generator's random stream
# apart from the reference copy.
GENERATED_DIGESTS = {
    ("A", False, 1): "761cc31383b78a1a24ba278926d42dc49c632d96b5b05f75bac0be7575d485fa",
    ("A", False, 2): "ff8eb5ee14153b904ef98ca5fcfe05650949552de5e0ea958a66cce13fa8c0ae",
    ("A", True, 1): "d7b7ba05e38af4447c766dac81dcf38d45fe56a0fdc93e951470d8e5f4df7f52",
    ("A", True, 2): "980430d7a4b581875aaa81d1a05cc870373ff0af01be1a2b66f555e2e853ddb7",
    ("B", False, 1): "bcf6dc90a6d363b66c214be742790693ce2c33b541ee4652f0e0da5c95e243ce",
    ("B", False, 2): "c90c3efb6eef6bc6bbdbfb9680bc5d742fbf917039b91a06dcb5722553cda91f",
    ("B", True, 1): "be87fad23626ed36d6227f56e34bae1b1e15f57b5367a0b08778c0832dd31c08",
    ("B", True, 2): "c8764886436c9dd794d19ab7633bb3d9c94637223f28425a04382e1bf09e65c9",
    ("C", False, 1): "f1eaef920a3919269c7faa2780e5abb077aa4269138f78a36607e16996ec5a50",
    ("C", False, 2): "6ceccc8e0234c364da5b8771b629858ec5c6503498466e55aa3affadbc4b52e2",
    ("C", True, 1): "b89f7b4a1c34421db46ab6e166c9536551523c8cf636d42030d572cce5bb4aa2",
    ("C", True, 2): "cb33650c8e0746d16250d235b18e987c451828a005fb55d26f44b69ac84a098f",
    ("D", False, 1): "b8ee8eb2f7fc95fc0f55d88c4f83782ce56d325c7b4ed1ccf2717cfebe2cb0b4",
    ("D", False, 2): "59cc99ed2a34f71ff571456f7f7bcdbdd2a1bc9f5fed960da0ee4707d79c47c0",
    ("D", True, 1): "44304f79f41bddb8416eebadfc8aa3cb7e882c847e0214fb3dbc279e36507725",
    ("D", True, 2): "5e573f7eb6ae1afca40c0d8dbfdb5a3db8dacd3898a45006be17d6dd9431e9f0",
}


@pytest.mark.parametrize("arch", ARCHETYPES)
@pytest.mark.parametrize("bimodal", [False, True], ids=["uniform", "bimodal"])
@pytest.mark.parametrize("seed", [1, 2])
def test_generated_text_matches_the_pinned_digest(arch, bimodal, seed):
    text = serialize_trace(gen_synthetic(archetype_params(arch, seed, bimodal)))
    assert hashlib.sha256(text.encode()).hexdigest() \
        == GENERATED_DIGESTS[arch, bimodal, seed]


def test_phase_change_head_is_cut_through_the_columns():
    head = gen_synthetic(archetype_params("B", 5000, False), name="head")
    events, done = [], 0
    for e in head.events:
        if done + e.gap + 1 > 200_000:
            break
        events.append(e)
        done += e.gap + 1
    tail = gen_synthetic(
        SynthParams.for_rate(UniformGaps(300, 500), 0.05, 0.1, 400_000,
                             5001, base_addr=0x900000), name="tail")
    old = concat_traces(Trace(tuple(events), name="head"), tail,
                        name="test-phase")
    assert phase_change_app().trace == old
