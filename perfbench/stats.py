"""Pure helpers of the benchmark: percentiles, request timings, SLOs, spans.

Nothing here imports the program under test, so the helpers' tests run
without it.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Iterable, Sequence

import numpy as np

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float | None:
    """The ``q``-th percentile (0 < q < 100) of ``values``, or None when fewer
    than :data:`MIN_BEYOND` samples lie beyond it (p50 needs 20 samples,
    p90 needs 100)."""
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    beyond = len(values) * (100 - q) / 100
    if beyond + 1e-9 < MIN_BEYOND:
        return None
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def request_timing(
    due: float, step_ends: Sequence[float], finish: float, output_tokens: int
) -> tuple[float, float | None]:
    """``(ttft, tpot)`` of one decoded request, in the unit of its timestamps.

    ``step_ends`` are the end times of the request's engine steps; the first
    one is its prefill, which yields the first token.  TPOT is
    ``(finish - first token) / (output_tokens - 1)``, which stays right when
    one step commits several tokens (a speculative round); it is None for a
    single-token request.
    """
    if not step_ends:
        raise ValueError("a decoded request has at least its prefill step")
    first = step_ends[0]
    ttft = first - due
    if output_tokens < 2:
        return ttft, None
    return ttft, (finish - first) / (output_tokens - 1)


def slo_attainment(
    sent: int,
    timings: Iterable[tuple[float, float | None]],
    ttft_limit: float,
    tpot_limit: float,
) -> float:
    """Share of the ``sent`` requests whose ``(ttft, tpot)`` meet both limits.

    ``timings`` holds only requests that completed with a correct output, so
    shed, failed and wrong requests count as misses through ``sent``.
    """
    if sent < 1:
        raise ValueError("slo_attainment needs at least one request sent")
    met = sum(
        1
        for ttft, tpot in timings
        if ttft <= ttft_limit and (tpot is None or tpot <= tpot_limit)
    )
    return met / sent


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    end = lo
    for a, b in clipped:
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: Sequence[dict]) -> dict[int, float]:
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover (children on other threads may overlap one
    another, so the covered length is their union, not their sum)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - covered(children.get(span["id"], ()), span["start"], span["end"])
        for span in spans
    }


def stratified_uniform(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` draws from U(0, 1), one from each of ``count`` equal strata,
    in random order: every seed sees the same distribution, not just the
    same expected one."""
    u = (np.arange(count) + rng.uniform(size=count)) / count
    return rng.permutation(u)


def even_prefix_uniform(rng: np.random.Generator, count: int) -> np.ndarray:
    """Stratified U(0, 1) draws whose every prefix of 2**k draws is itself
    stratified, for a closed loop that stops wherever its time runs out.

    ``count`` must be a power of two.  Stratum ``rev(i ^ m)`` comes i-th,
    where ``rev`` reverses the index bits and the seed picks the mask ``m``.
    """
    bits = count.bit_length() - 1
    if count < 1 or 1 << bits != count:
        raise ValueError(f"count must be a power of two, got {count}")
    mask = int(rng.integers(count))
    strata = [int(f"{i ^ mask:0{bits}b}"[::-1], 2) if bits else 0 for i in range(count)]
    return (np.asarray(strata) + rng.uniform(size=count)) / count


def digest(*parts: object) -> str:
    """A short content hash of requests and prompts (arrays hash by bytes)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.dtype).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]


def mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values) if values else 0.0
