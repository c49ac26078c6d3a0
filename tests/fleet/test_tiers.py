"""Replica tier tests: cost models, quantized weights, linformer pricing."""

import numpy as np
import pytest

from repro.fleet.tiers import ReplicaTier, build_tier_model, standard_tiers
from repro.models.config import gpt2_config


def test_validation():
    with pytest.raises(ValueError, match="name"):
        ReplicaTier(name="")
    with pytest.raises(ValueError, match="cost_scale"):
        ReplicaTier(name="x", cost_scale=0.0)
    with pytest.raises(ValueError, match="attention_rank"):
        ReplicaTier(name="x", attention_rank=0)


def test_cost_scale_is_a_uniform_multiplier():
    full = ReplicaTier(name="full")
    fast = ReplicaTier(name="fast", cost_scale=0.5)
    assert fast.step_cost(4, 10) == pytest.approx(0.5 * full.step_cost(4, 10))
    assert fast.request_cost(8, 8, 64) == pytest.approx(0.5 * full.request_cost(8, 8, 64))


def test_linformer_rank_caps_the_attention_term():
    full = ReplicaTier(name="full")
    capped = ReplicaTier(name="lin", attention_rank=16)
    # below the rank the costs agree; past it the capped tier stays flat
    assert capped.step_cost(1, 8) == pytest.approx(full.step_cost(1, 8))
    assert capped.step_cost(1, 16) == pytest.approx(full.step_cost(1, 16))
    assert capped.step_cost(1, 200) == pytest.approx(capped.step_cost(1, 16))
    assert capped.step_cost(1, 200) < full.step_cost(1, 200)


def test_request_cost_grows_with_prompt_and_generation():
    tier = ReplicaTier(name="full")
    assert tier.request_cost(16, 8, 64) > tier.request_cost(4, 8, 64)
    assert tier.request_cost(4, 16, 64) > tier.request_cost(4, 8, 64)
    # a single-token generation is just the prefill forward
    assert tier.request_cost(4, 1, 64) == pytest.approx(tier.step_cost(4, 0))


def test_standard_tiers_shape():
    full, int8, lin = standard_tiers(linformer_rank=32)
    assert (full.name, int8.name, lin.name) == ("full", "int8", "linformer")
    assert int8.quantized and int8.cost_scale < 1.0
    assert lin.attention_rank == 32


def test_build_tier_model_quantizes_only_the_int8_tier():
    config = gpt2_config().scaled(
        num_layers=1, hidden_size=32, num_heads=2, ffn_dim=64,
        vocab_size=128, max_positions=32,
    )
    full, int8, lin = standard_tiers(linformer_rank=8)
    full_model, full_meta = build_tier_model(full, config, weight_seed=0)
    int8_model, int8_meta = build_tier_model(int8, config, weight_seed=0)
    _, lin_meta = build_tier_model(lin, config, weight_seed=0)
    assert not full_meta["quantized"] and int8_meta["quantized"]
    assert int8_meta["compression_ratio"] > 2.0
    assert lin_meta["attention_rank"] == 8
    # quantization actually perturbed the weights (same seed otherwise)
    assert not np.array_equal(
        full_model.layers[0].attention.query.weight.data,
        int8_model.layers[0].attention.query.weight.data,
    )


def test_make_tier_sequencer_passes_shared_prefix_through():
    """Fleet-wide shared_prefix_tokens must reach the sequencer so every
    replica derives the same tenant-keyed prompt openings."""
    from repro.fleet.tiers import make_tier_sequencer
    from repro.models import GPT2Model
    from repro.serving.arrivals import Request

    config = gpt2_config().scaled(
        num_layers=1, hidden_size=32, num_heads=2, ffn_dim=64,
        vocab_size=128, max_positions=32,
    )
    model = GPT2Model(config, rng=np.random.default_rng(0))
    tier = ReplicaTier(name="full")
    seq = make_tier_sequencer(tier, model, prompt_seed=3, shared_prefix_tokens=5)
    assert seq.shared_prefix_tokens == 5
    a = seq.prompt_for(Request(0.0, 10, id=0, tenant="t"))
    b = seq.prompt_for(Request(0.0, 12, id=1, tenant="t"))
    assert list(a[:5]) == list(b[:5])
    assert list(a[5:]) != list(b[5:])
    # default stays prefix-free
    plain = make_tier_sequencer(tier, model, prompt_seed=3)
    assert plain.shared_prefix_tokens == 0
