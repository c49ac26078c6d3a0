"""Draft-then-verify speculative decoding, bit-identical under greedy
exact-match acceptance.

The engine's base decode emits one token per forward, so serving throughput
is bounded by sequential small-GEMM latency — the regime edge devices live
in.  Speculative decoding breaks the sequential chain: a cheap *proposer*
guesses the next ``k`` tokens, the target model scores the pending token
plus all ``k`` guesses in **one** batched cached forward
(:meth:`~repro.models.gpt2.GPT2Model.logits_cached` with
``all_positions=True``), and the longest prefix of guesses that matches the
target's own greedy argmaxes is accepted.  Rejected positions are rolled
back with ``LayerKVCache.truncate`` — the same shrink-only rollback
preemption already uses.

Why outputs stay bit-identical to ``generate_cached`` (proof sketch in
INTERNALS §16): acceptance is *exact argmax match*, so every emitted token
equals the target's greedy choice given the same committed ids; the argmax
is computed from a batched forward rather than ``k`` sequential ones, which
permutes BLAS reduction shapes but in practice never flips an argmax (the
soak tests assert equality token-for-token against offline
``generate_cached`` across interleaving, preemption and both proposers).
A round that drafts nothing degenerates to the base sequencer's single
one-position forward — op-for-op identical.

Two proposers ship:

- :class:`NgramProposer` — self-drafting: assume the sequence keeps
  following its own most recent repeated suffix.  Free (no model), and
  surprisingly strong on greedy decodes, which settle into repetition
  attractors.
- :class:`DraftModelProposer` — a smaller GPT-2 sharing the tokenizer /
  vocab (typically :meth:`GPT2Model.truncated_draft`: the target's first
  layers by reference) drafts ``k`` greedy tokens through its own KV cache,
  resynchronised against the committed ids by longest-common-prefix
  truncation each round.  Draft forwards affect only *which* tokens get
  proposed — never what the target accepts — so draft-side float wobble
  cannot touch output correctness.

Virtual-time honesty: a verify over ``1 + k`` positions is charged
``step_cost(1 + k, cache_len)``, so the serve bench's speedup is the cost
model's own amortisation of the per-forward launch overhead, not an
accounting trick.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.engine.sequencer import GPT2CachedSequencer, _DecodeState
from repro.obs.metrics import get_registry
from repro.serving.arrivals import Request
from repro.engine.slots import KVSlot

__all__ = [
    "DraftModelProposer",
    "NgramProposer",
    "SpeculativeSequencer",
    "SpeculativeStats",
]


@dataclass
class SpeculativeStats:
    """Monotonic counters over every decode the sequencer runs."""

    forwards: int = 0  # decode verify forwards (prefills excluded)
    rounds: int = 0  # forwards that carried >= 1 drafted token
    drafted: int = 0
    accepted: int = 0
    emitted: int = 0  # tokens committed by decode steps (pending + accepted)

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.drafted if self.drafted else 0.0

    @property
    def tokens_per_forward(self) -> float:
        return self.emitted / self.forwards if self.forwards else 0.0

    def snapshot(self) -> "SpeculativeStats":
        return replace(self)

    def delta(self, since: "SpeculativeStats") -> "SpeculativeStats":
        return SpeculativeStats(
            forwards=self.forwards - since.forwards,
            rounds=self.rounds - since.rounds,
            drafted=self.drafted - since.drafted,
            accepted=self.accepted - since.accepted,
            emitted=self.emitted - since.emitted,
        )

    def as_dict(self) -> dict:
        return {
            "forwards": self.forwards,
            "rounds": self.rounds,
            "drafted": self.drafted,
            "accepted": self.accepted,
            "emitted": self.emitted,
            "acceptance_rate": self.acceptance_rate,
            "tokens_per_forward": self.tokens_per_forward,
        }


class NgramProposer:
    """Self-drafting: continue the sequence's most recent repeated suffix.

    Greedy decodes of small LMs fall into repetition attractors — once a
    cycle starts, the continuation after an earlier occurrence of the
    current suffix *is* the next token.  The proposer looks for the longest
    suffix (up to ``max_order`` tokens) that occurred earlier, takes what
    followed its most recent earlier occurrence, and cycles it out to ``k``
    guesses.  No model, no state, no allocation.
    """

    name = "ngram"

    def __init__(self, max_order: int = 3):
        if max_order < 1:
            raise ValueError(f"max_order must be >= 1, got {max_order}")
        self.max_order = max_order

    def begin(self, ids: list[int]) -> None:
        return None

    def propose(self, dstate: None, ids: list[int], k: int) -> list[int]:
        if k <= 0 or len(ids) < 2:
            return []
        for order in range(min(self.max_order, len(ids) - 1), 0, -1):
            suffix = ids[-order:]
            # most recent earlier occurrence (strictly before the suffix itself)
            for j in range(len(ids) - order - 1, -1, -1):
                if ids[j:j + order] == suffix:
                    continuation = ids[j + order:]
                    while len(continuation) < k:  # cycle-pad the attractor
                        continuation = continuation + continuation
                    return continuation[:k]
        return []


@dataclass
class _DraftDecode:
    """Per-request draft-model state: its own KV cache over committed ids."""

    cache: object  # KVCache
    workspace: object
    ids: list[int]  # the ids whose rows the cache currently holds


class DraftModelProposer:
    """A smaller same-vocab GPT-2 drafts ``k`` greedy tokens per round.

    The draft keeps its own per-request KV cache (one small allocation per
    request, like offline ``generate_cached`` itself — the *slot pool's*
    zero-allocation invariant is untouched).  Each round it resynchronises
    by truncating to the longest common prefix of its cached ids and the
    committed ids (drafts the target rejected simply fall off), catches up
    on committed tokens in one batched forward, then rolls ``k`` greedy
    steps ahead.
    """

    name = "draft-model"

    def __init__(self, model):
        if model.num_layers < 1:
            raise ValueError("draft model needs at least one layer")
        self.model = model

    def begin(self, ids: list[int]) -> _DraftDecode:
        from repro.models.cache import KVCache
        from repro.tensor.workspace import Workspace

        return _DraftDecode(
            cache=KVCache.empty(self.model.num_layers, self.model.config.max_positions),
            workspace=Workspace(),
            ids=[],
        )

    def propose(self, dstate: _DraftDecode, ids: list[int], k: int) -> list[int]:
        model = self.model
        max_positions = model.config.max_positions
        k = min(k, max_positions - len(ids))
        if k <= 0:
            return []
        # resync: keep only rows matching the committed ids, and always leave
        # the last committed token to forward (its logits are what we draft from)
        common = 0
        bound = min(len(dstate.ids), len(ids) - 1)
        while common < bound and dstate.ids[common] == ids[common]:
            common += 1
        if common < len(dstate.ids):
            for layer_cache in dstate.cache.layers:
                layer_cache.truncate(common)
            del dstate.ids[common:]
        drafts: list[int] = []
        new = ids[common:]
        while len(drafts) < k:
            logits = model.logits_cached(
                new, len(dstate.ids), dstate.cache.layers, workspace=dstate.workspace
            )
            dstate.ids.extend(new)
            guess = int(np.argmax(logits))
            drafts.append(guess)
            new = [guess]
        return drafts


class SpeculativeSequencer(GPT2CachedSequencer):
    """Greedy decoding where each engine step is one draft–verify round.

    Drop-in for :class:`GPT2CachedSequencer` (same prompts, same offline
    reference, same prefix-cache support): prefill is inherited unchanged,
    and every decode step (a) commits the pending token, (b) asks the
    proposer for up to ``lookahead`` guesses, (c) verifies pending+guesses
    in one batched forward, (d) commits the longest argmax-matching guess
    prefix and truncates the rejected rows.  The step still returns one
    ``(done, cost)`` — it just may commit several tokens.
    """

    def __init__(self, model, proposer=None, lookahead: int = 4, **kwargs):
        super().__init__(model, **kwargs)
        if lookahead < 1:
            raise ValueError(f"lookahead must be >= 1, got {lookahead}")
        self.proposer = proposer if proposer is not None else NgramProposer()
        self.lookahead = lookahead
        self.stats = SpeculativeStats()

    def begin(
        self,
        request: Request,
        prompt: np.ndarray,
        slot: KVSlot,
        cached_prefix: int = 0,
    ) -> _DecodeState:
        state = super().begin(request, prompt, slot, cached_prefix=cached_prefix)
        state.draft = self.proposer.begin(state.ids)  # proposer-owned per-request state
        return state

    def step(self, state: _DecodeState) -> tuple[bool, float | None]:
        if not state.prefilled or state.done:
            return super().step(state)  # prefill (or the finished-state error)
        stats = self.stats
        ids = state.ids
        # commit the pending token — the base step's commit, same budget rules
        stats.emitted += 1
        if state.commit():
            return True, self._cost(None)
        # never draft past max_new (the final pending token is always
        # committed without a forward, exactly like the base loop) or past
        # the model's position budget
        budget = min(self.lookahead, state.accept_budget())
        draft = (
            [int(t) for t in self.proposer.propose(state.draft, ids, budget)][:budget]
            if budget > 0
            else []
        )
        cache_len = len(ids) - 1  # rows the slot holds entering the round
        cost = self._cost((1 + len(draft), cache_len))
        if draft:
            guesses = state.forward([ids[-1]] + draft, cache_len, all_positions=True)
        else:
            # no guesses: run the base sequencer's exact one-position forward
            # (same GEMV head), op-identical to non-speculative decode
            guesses = [state.forward(ids[-1:], cache_len)]
        accepted = 0
        while accepted < len(draft) and int(guesses[accepted]) == draft[accepted]:
            accepted += 1
        state.accept(draft[:accepted], int(guesses[accepted]))
        # roll back the rejected rows; rows for accepted tokens stay
        state.slot.truncate(len(ids))
        stats.forwards += 1
        stats.drafted += len(draft)
        stats.accepted += accepted
        stats.emitted += accepted
        if draft:
            stats.rounds += 1
            registry = get_registry()
            registry.counter("engine.speculative.drafted_total").inc(len(draft))
            registry.counter("engine.speculative.accepted_total").inc(accepted)
        get_registry().counter("engine.speculative.forwards_total").inc()
        # a round that fills max_positions ends without committing its
        # pending token, exactly where the base loop stops
        return state.done, cost
