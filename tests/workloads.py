"""Synthetic workload families used across the test suite.

Four archetypes with distinct reuse-gap scales and write mixes, chosen so the
exhaustive oracle maps them to different cores with real margins:

  A: hot write-heavy loops, sub-microsecond reuse -> cheapest-write capped core
  B: streaming, working set far beyond the cache -> miss-bound, low frequency
  C: reuse just past the shortest lifetime, write-heavy -> mid-retention core
  D: very long reuse, moderate writes -> longest-retention core

Half of each archetype uses the bimodal gap mixture, half uniform gaps.
"""

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from sttsim import BimodalGaps, SynthParams, Trace, UniformGaps, gen_synthetic
from sttsim.trace import concat_traces

ARCHETYPES = "ABCD"

PROFILING_INTERVAL = 15_000


def archetype_params(arch: str, seed: int, bimodal: bool) -> SynthParams:
    if arch == "A":
        gaps = (BimodalGaps(200, 280, 400, 560, 0.3) if bimodal
                else UniformGaps(320, 480))
        return SynthParams.for_rate(gaps, 0.25, 0.85, 150_000, seed)
    if arch == "B":
        gaps = (BimodalGaps(30_000, 40_000, 52_000, 68_000, 0.25) if bimodal
                else UniformGaps(40_000, 60_000))
        return SynthParams.for_rate(gaps, 0.041, 0.5, 500_000, seed)
    if arch == "C":
        gaps = (BimodalGaps(3_000, 5_000, 14_000, 17_500, 0.15) if bimodal
                else UniformGaps(13_000, 16_000))
        return SynthParams.for_rate(gaps, 0.008, 0.85, 3_000_000, seed)
    if arch == "D":
        gaps = (BimodalGaps(25_000, 40_000, 210_000, 330_000, 0.2) if bimodal
                else UniformGaps(200_000, 320_000))
        return SynthParams.for_rate(gaps, 0.0018, 0.65, 6_000_000, seed)
    raise ValueError(f"unknown archetype {arch!r}")


@dataclass(frozen=True)
class App:
    name: str
    arch: str
    trace: Trace


def build_suite(per_arch: int, seed0: int, tag: str) -> list[App]:
    apps = []
    for arch in ARCHETYPES:
        for i in range(per_arch):
            params = archetype_params(arch, seed0 + 13 * i + ord(arch), i % 2 == 1)
            name = f"{tag}-{arch}{i}"
            apps.append(App(name, arch, gen_synthetic(params, name=name)))
    return apps


def training_suite() -> list[App]:
    """30 workloads: 8 each of A/B/C plus 6 of D."""
    return build_suite(8, 1000, "train")[:30]


def phase_change_app(seed: int = 5000) -> App:
    """Streaming head, compute-bound tail.

    The profiled window looks miss-heavy (a capped-core prediction), but the
    tail needs the full 2 GHz, so tight deadlines force an escalation.
    """
    full = gen_synthetic(archetype_params("B", seed, False), name="head")
    # The accesses that end within the first 200,000 instructions.
    cut = bisect_right(list(accumulate(gap + 1 for gap in full.gaps)), 200_000)
    head = Trace.from_columns(full.gaps[:cut], full.writes[:cut],
                              full.addrs[:cut], name="head")
    tail = gen_synthetic(
        SynthParams.for_rate(UniformGaps(300, 500), 0.05, 0.1, 400_000,
                             seed + 1, base_addr=0x900000), name="tail")
    return App("test-phase", "P", concat_traces(head, tail, name="test-phase"))


def test_suite() -> list[App]:
    """20 held-out workloads; the last is the phase-change escalation case."""
    apps = build_suite(5, 9000, "test")
    apps[-1] = phase_change_app()
    return apps
