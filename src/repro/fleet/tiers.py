"""Heterogeneous replica tiers: full-fidelity GPT-2 plus cheap variants.

A fleet is rarely homogeneous: the paper's edge clusters mix device classes,
and a serving fleet mixes *model* classes — the full model where quality
matters, compressed or efficient-attention variants where latency/cost do.
A :class:`ReplicaTier` bundles what distinguishes a replica class:

- **weights** — the ``int8`` tier really quantizes its model with
  :func:`repro.compress.quantize.quantize_model_` (so its outputs are the
  quantized model's outputs, deterministically different from full);
- **virtual service cost** — each tier carries its own deterministic
  step-cost model, a multiple of the engine's analytic
  :func:`~repro.engine.clock.step_cost`
  (``base + per_position·new + per_cached·cache``) with two tier knobs:
  ``cost_scale`` (uniform speedup, e.g. modeled int8 arithmetic) and
  ``attention_rank`` (a Linformer-style cap: the per-cached-position
  attention term stops growing past the rank, which is exactly the
  serving-visible property of :mod:`repro.efficient.linformer` — per-step
  attention cost O(r), flat in context length).

The router prices each tier through :meth:`ReplicaTier.request_cost`, so
"least-loaded" means least *work*, not least requests.

Fidelity note: token outputs always come from the real GPT-2 decode path
(quantized weights for the ``int8`` tier).  The ``linformer`` tier models
Linformer's *cost* profile only — the repo's efficient-attention layers are
encoder-only, so a causal Linformer decode path is a documented follow-up;
until then the tier serves full-fidelity tokens at Linformer prices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.clock import request_cost, step_cost

__all__ = [
    "ReplicaTier",
    "standard_tiers",
    "build_tier_model",
    "make_tier_sequencer",
]


@dataclass(frozen=True)
class ReplicaTier:
    """One replica class: a model variant plus its virtual cost model."""

    name: str
    description: str = ""
    cost_scale: float = 1.0  # uniform virtual-time multiplier on every step
    attention_rank: int | None = None  # Linformer-style cap on the attended-window cost
    quantized: bool = False  # apply int8 fake quantization to the weights

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tier needs a non-empty name")
        if self.cost_scale <= 0:
            raise ValueError(f"cost_scale must be > 0, got {self.cost_scale}")
        if self.attention_rank is not None and self.attention_rank < 1:
            raise ValueError(f"attention_rank must be >= 1, got {self.attention_rank}")

    # -- the tier's deterministic virtual cost model ---------------------------

    def step_cost(self, new_positions: int, cache_len: int) -> float:
        """Virtual seconds for one engine token step on this tier."""
        attended = (
            min(cache_len, self.attention_rank)
            if self.attention_rank is not None
            else cache_len
        )
        return self.cost_scale * step_cost(new_positions, attended)

    def request_cost(self, prompt_len: int, max_new_tokens: int, max_positions: int) -> float:
        """Total virtual service seconds of one request on this tier: its
        step costs over the forwards the sequencer runs."""
        return request_cost(prompt_len, max_new_tokens, max_positions, step=self.step_cost)


def standard_tiers(linformer_rank: int = 16) -> tuple[ReplicaTier, ReplicaTier, ReplicaTier]:
    """The three-tier pool the fleet bench runs: full, int8, linformer.

    ``int8``'s 0.6 cost scale models the arithmetic speedup a real int8
    backend buys with the 4x-smaller weights
    (:mod:`repro.compress.quantize` measures the payload shrink; execution
    here stays float, as in standard PTQ evaluation).  ``linformer`` keeps
    unit step scale but its attention term saturates at ``linformer_rank``
    cached positions — flat per-step cost in the context length.
    """
    return (
        ReplicaTier("full", description="full-fidelity GPT-2"),
        ReplicaTier(
            "int8",
            description="weights int8-quantized (compress.quantize), modeled 1.67x step speedup",
            cost_scale=0.6,
            quantized=True,
        ),
        ReplicaTier(
            "linformer",
            description=f"Linformer-priced attention: cost flat past rank {linformer_rank}",
            attention_rank=linformer_rank,
        ),
    )


def build_tier_model(tier: ReplicaTier, config, weight_seed: int = 0):
    """Instantiate the tier's model: shared GPT-2 weights (seeded), with the
    ``int8`` tier's weights fake-quantized in place.  Returns ``(model,
    meta)`` where ``meta`` records what the tier did to the weights."""
    from repro.compress.quantize import quantize_model_
    from repro.models import GPT2Model

    model = GPT2Model(config, rng=np.random.default_rng(weight_seed))
    meta: dict = {"tier": tier.name, "quantized": False}
    if tier.quantized:
        report = quantize_model_(model)
        meta.update(
            quantized=True,
            compression_ratio=round(report.compression_ratio, 3),
            max_abs_error=report.max_abs_error,
        )
    if tier.attention_rank is not None:
        from repro.efficient.linformer import state_elements

        meta["attention_rank"] = tier.attention_rank
        meta["linformer_state_elements"] = state_elements(
            config.num_heads, tier.attention_rank, config.head_dim
        )
    return model, meta


def make_tier_sequencer(
    tier: ReplicaTier,
    model,
    max_new_tokens: int = 8,
    prompt_seed: int = 0,
    shared_prefix_tokens: int = 0,
):
    """A :class:`~repro.engine.GPT2CachedSequencer` charging this tier's
    step costs.  ``prompt_seed`` must be fleet-wide so a request's prompt
    does not depend on which replica serves it; ``shared_prefix_tokens``
    (also fleet-wide) opens every tenant's prompts with that tenant's
    deterministic system-prompt prefix — the workload shape the engine's
    cross-request prefix cache reuses."""
    from repro.engine import GPT2CachedSequencer

    return GPT2CachedSequencer(
        model,
        max_new_tokens=max_new_tokens,
        step_cost=tier.step_cost,
        prompt_seed=prompt_seed,
        shared_prefix_tokens=shared_prefix_tokens,
    )
