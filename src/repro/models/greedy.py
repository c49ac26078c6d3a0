"""The one greedy decode state machine every decoder in the repo runs.

``GPT2Model.generate_cached``, the distributed decoders in
``repro.systems.decode`` and the engine's sequencers all advance a
:class:`GreedyDecode` over their own *backend*: ``forward(new_ids, offset,
all_positions=False)`` runs one cached forward and returns the greedy id of
the last position (one per position with ``all_positions``).  The argmax
stays in the backend, so a distributed backend decides tokens rank-side.

Prefill forwards the prompt rows not already cached; each later step
commits the pending id and, unless that ends the decode, forwards it alone.
The decode ends once ``max_new_tokens`` ids are committed or the sequence
fills ``max_positions`` — and no forward runs after the final commit, since
its result could never be used (INTERNALS §10).
"""

from __future__ import annotations

import numpy as np

__all__ = ["GreedyDecode", "cached_forward", "forward_shapes"]


class GreedyDecode:
    """One greedy decode: the committed ``ids``, the pending ``next_id`` and
    the termination state, advanced one forward at a time."""

    def __init__(
        self, prompt, max_new_tokens: int, max_positions: int, cached_prefix: int = 0
    ):
        if max_new_tokens < 0:
            raise ValueError(f"max_new_tokens must be >= 0, got {max_new_tokens}")
        prompt = np.asarray(prompt)
        if prompt.ndim != 1 or prompt.size < 1:
            raise ValueError(f"prompt must be a non-empty 1-D id array, got {prompt.shape}")
        if prompt.size > max_positions:
            raise ValueError(
                f"prompt of {prompt.size} tokens exceeds max_positions {max_positions}"
            )
        self.ids = [int(t) for t in prompt]
        self.prompt_len = prompt.size
        self.max_new_tokens = max_new_tokens
        self.max_positions = max_positions
        self.cached_prefix = cached_prefix  # prompt rows the caches already hold
        self.next_id: int | None = None
        self.emitted = 0
        self.done = False

    @property
    def capacity(self) -> int:  # positions the caches must hold
        return min(self.prompt_len + self.max_new_tokens, self.max_positions)

    @property
    def prefilled(self) -> bool:
        return self.next_id is not None

    def _finished(self) -> bool:
        return self.emitted >= self.max_new_tokens or len(self.ids) >= self.max_positions

    def commit(self) -> bool:
        """Append the pending id; True when that ends the decode."""
        self.ids.append(self.next_id)
        self.emitted += 1
        self.done = self._finished()
        return self.done

    def accept_budget(self) -> int:
        """How many ids past the last committed one a step may still commit
        before its own pending id: room under both the token budget and
        the position cap."""
        return min(self.max_new_tokens - self.emitted - 1, self.max_positions - len(self.ids))

    def accept(self, tokens, next_id: int) -> None:
        """Commit ``tokens`` (verified speculative ids, often none) and make
        ``next_id`` the pending id."""
        self.ids.extend(tokens)
        self.emitted += len(tokens)
        self.next_id = next_id
        self.done = self._finished()

    def step(self, forward) -> tuple[int, int] | None:
        """Prefill, or commit the pending id and forward it.  Returns the
        forward's ``(new_positions, offset)``, or None when the step only
        committed."""
        if self.done:
            raise ValueError("greedy decode already finished")
        if not self.prefilled:
            new, offset = self.ids[self.cached_prefix:], self.cached_prefix
        elif self.commit():
            return None
        else:
            new, offset = self.ids[-1:], len(self.ids) - 1
        self.accept((), int(forward(new, offset)))
        return len(new), offset

    def run(self, forward) -> list[int]:
        """Step to completion; returns the committed ids."""
        while not self.done:
            self.step(forward)
        return self.ids


def cached_forward(model, caches, workspace=None):
    """A greedy backend over caller-owned per-layer caches: one
    ``model.logits_cached`` forward, then the argmax."""

    def forward(new_ids, offset: int, all_positions: bool = False):
        logits = model.logits_cached(
            new_ids, offset, caches, workspace=workspace, all_positions=all_positions
        )
        greedy = np.argmax(logits, axis=-1)
        return greedy if all_positions else int(greedy)

    return forward


def forward_shapes(
    prompt_len: int, max_new_tokens: int, max_positions: int
) -> list[tuple[int, int]]:
    """``(new_positions, offset)`` of every forward a greedy decode of this
    shape runs — the state machine driven over lengths alone."""
    shapes: list[tuple[int, int]] = []

    def forward(new_ids, offset: int) -> int:
        shapes.append((len(new_ids), offset))
        return 0

    GreedyDecode(np.zeros(prompt_len, dtype=np.int64), max_new_tokens, max_positions).run(
        forward
    )
    return shapes
