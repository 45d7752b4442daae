"""Seeded inputs of the three workloads, all made with `gen_synthetic`.

The four archetypes follow the synthetic families of the test suite:

  A  hot write-heavy loops, sub-microsecond reuse (hit-dominated)
  B  streaming, working set far beyond the cache (miss-dominated)
  C  reuse just past the shortest lifetime, write-heavy
  D  very long reuse, moderate writes

Each archetype has a uniform and a bimodal reuse-gap family. `scale`
multiplies the instruction count and leaves the access rate, the write share
and the working set as they are. Every seed below is derived from the
workload seed, so one seed always gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from sttsim import trace as strace
from sttsim.trace import BimodalGaps, SynthParams, UniformGaps

ARCHETYPES = "ABCD"

# arch -> (uniform gaps, bimodal gaps, memory-op fraction, write fraction,
#          instructions at scale 1)
_FAMILIES = {
    "A": (UniformGaps(320, 480), BimodalGaps(200, 280, 400, 560, 0.3),
          0.25, 0.85, 150_000),
    "B": (UniformGaps(40_000, 60_000),
          BimodalGaps(30_000, 40_000, 52_000, 68_000, 0.25),
          0.041, 0.5, 500_000),
    "C": (UniformGaps(13_000, 16_000),
          BimodalGaps(3_000, 5_000, 14_000, 17_500, 0.15),
          0.008, 0.85, 3_000_000),
    "D": (UniformGaps(200_000, 320_000),
          BimodalGaps(25_000, 40_000, 210_000, 330_000, 0.2),
          0.0018, 0.65, 6_000_000),
}

# Instructions of the profiling window, as in the test suite's workloads.
PROFILING_INTERVAL = 15_000

CONFIG_TEXT = f"""\
# Default four-core system; profiling window sized for short synthetic apps.
[system]
profiling_interval = {PROFILING_INTERVAL}
"""


def archetype_params(arch: str, seed: int, bimodal: bool,
                     scale: float = 1.0, base_addr: int = 0x10000) -> SynthParams:
    uniform, mixture, mem_fraction, write_fraction, total = _FAMILIES[arch]
    return SynthParams.for_rate(mixture if bimodal else uniform, mem_fraction,
                                write_fraction, round(total * scale), seed,
                                base_addr=base_addr)


@dataclass(frozen=True)
class TraceSpec:
    """One generated trace: how to make it and, for simulate-long, where to
    run it."""

    name: str
    params: SynthParams
    core: str = ""
    freq_ghz: float = 0.0


def simulate_long_specs(seed: int) -> list[TraceSpec]:
    """About 0.7 M events: one hit-, one miss- and two expiration-dominated
    runs (C on the 10 us core, D on the 26.5 us core)."""
    base = seed * 1000
    return [
        TraceSpec("long-A", archetype_params("A", base + 1, False, 5.0),
                  "core3", 2.0),
        TraceSpec("long-B", archetype_params("B", base + 2, True, 10.0),
                  "core4", 1.4),
        TraceSpec("long-C", archetype_params("C", base + 3, False, 7.0),
                  "core1", 1.6),
        TraceSpec("long-D", archetype_params("D", base + 4, True, 12.0),
                  "core2", 1.2),
    ]


def suite_specs(seed: int, tag: str, scale: float,
                both_families: bool = True) -> list[TraceSpec]:
    """A-D, each with uniform and with bimodal reuse gaps, or, with
    `both_families` off, one trace each: A and C uniform, B and D bimodal."""
    return [TraceSpec(f"{tag}-{arch}{'b' if bimodal else 'u'}",
                      archetype_params(arch, seed * 1000 + 10 * i + bimodal,
                                       bimodal, scale))
            for i, arch in enumerate(ARCHETYPES)
            for bimodal in ((False, True) if both_families else (i % 2 == 1,))]


def generate(spec: TraceSpec) -> strace.Trace:
    return strace.gen_synthetic(spec.params, name=spec.name)


def phase_change_app(seed: int, name: str) -> strace.Trace:
    """Streaming head, compute-bound tail.

    The profiling window sees only the miss-heavy head, so the prediction
    favours a capped core, but the tail needs the full 2 GHz: tight
    deadlines force an escalation.
    """
    head = strace.gen_synthetic(archetype_params("B", seed, False), name="head")
    events, done = [], 0
    for e in head.events:
        if done + e.gap + 1 > 200_000:
            break
        events.append(e)
        done += e.gap + 1
    tail = strace.gen_synthetic(
        SynthParams.for_rate(UniformGaps(300, 500), 0.05, 0.1, 400_000,
                             seed + 1, base_addr=0x900000), name="tail")
    return strace.concat_traces(strace.Trace(tuple(events), name="head"), tail,
                                name=name)


def held_out_specs(seed: int, scale: float, count: int = 23) -> list[TraceSpec]:
    """Apps the models never saw: A-D in turn, gap family alternating every
    four apps."""
    specs = []
    for i in range(count):
        arch, bimodal = ARCHETYPES[i % 4], (i // 4) % 2 == 1
        specs.append(TraceSpec(f"app-{arch}{i}",
                               archetype_params(arch, seed * 1000 + i, bimodal,
                                                scale)))
    return specs


def fallback_app(seed: int, name: str) -> strace.Trace:
    """Hot write-heavy head, then reuse just past the 10 us lifetime.

    The profiling window sees only the head, so the prediction favours a
    cheap-write short-retention core, where every reuse of the tail expires:
    the base-core path is cheaper and the decision falls back to it.
    """
    head = strace.gen_synthetic(archetype_params("A", seed, False, 0.3),
                                name="head")
    tail = strace.gen_synthetic(archetype_params("C", seed + 1, False, 0.3,
                                                 base_addr=0x900000),
                                name="tail")
    return strace.concat_traces(head, tail, name=name)
