"""Engine time sources: deterministic virtual time or dilated wall time.

The engine replays an arrival stream against a clock.  Two implementations
share one tiny interface:

- :class:`VirtualClock` — simulated seconds.  ``advance`` charges service
  time explicitly (from a deterministic step-cost model) and ``wait_until``
  jumps straight to the next event, so a whole soak run takes milliseconds
  of wall time and every scheduling decision is reproducible bit-for-bit
  across hosts.  This is the default, and the only mode the CI soak lane
  and the ``serve`` bench use.
- :class:`WallClock` — real elapsed time via ``time.perf_counter``, with an
  optional ``dilation`` factor (2.0 = arrival timestamps replay twice as
  fast).  ``advance`` is a no-op because real time already passed while the
  model computed; ``wait_until`` sleeps.  Use this to demo the engine
  against live load.

Both clocks report time in *request-stream seconds* — the same time base as
``Request.arrival`` / ``Request.deadline`` — so the scheduler never needs
to know which mode it is running under.
"""

from __future__ import annotations

import time

from repro.models.greedy import forward_shapes

__all__ = ["VirtualClock", "WallClock", "request_cost", "step_cost"]

#: Analytic per-forward virtual cost (seconds): a fixed launch overhead, a
#: per-new-position projection term, and a per-cached-position attention term.
_BASE_S = 5e-3
_PER_POSITION_S = 1.5e-3
_PER_CACHED_S = 2e-5


def step_cost(new_positions: int, cache_len: int) -> float:
    """Deterministic virtual seconds for one engine token step."""
    return _BASE_S + _PER_POSITION_S * new_positions + _PER_CACHED_S * cache_len


def request_cost(
    prompt_len: int, max_new_tokens: int, max_positions: int, step=step_cost
) -> float:
    """Total virtual service seconds of one request, prefill included:
    ``step`` summed over the forwards the greedy state machine runs
    (:func:`~repro.models.greedy.forward_shapes`), for the prompt clipped
    to ``max_positions`` exactly as the sequencers clip it."""
    shapes = forward_shapes(min(prompt_len, max_positions), max_new_tokens, max_positions)
    return sum(step(new, offset) for new, offset in shapes)


class VirtualClock:
    """Deterministic simulated time; the engine's default time source."""

    is_virtual = True

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        """Charge ``seconds`` of simulated service time."""
        if seconds < 0:
            raise ValueError(f"cannot advance time by {seconds} s")
        self._now += seconds

    def wait_until(self, deadline: float) -> None:
        """Jump to ``deadline`` (no-op if it already passed)."""
        self._now = max(self._now, deadline)


class WallClock:
    """Real time, optionally dilated so recorded traces replay faster."""

    is_virtual = False

    def __init__(self, dilation: float = 1.0):
        if dilation <= 0:
            raise ValueError(f"dilation must be > 0, got {dilation}")
        self.dilation = dilation
        self._origin = time.perf_counter()

    def now(self) -> float:
        return (time.perf_counter() - self._origin) * self.dilation

    def advance(self, seconds: float) -> None:
        """No-op: wall time already elapsed while the work ran."""

    def wait_until(self, deadline: float) -> None:
        remaining = deadline - self.now()
        if remaining > 0:
            time.sleep(remaining / self.dilation)
