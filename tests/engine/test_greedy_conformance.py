"""One conformance matrix for every greedy decoder in the repo.

All of them advance :class:`repro.models.greedy.GreedyDecode`, so for any
request shape each must emit the ids offline ``generate_cached`` emits *and*
run exactly the forwards ``forward_shapes(prompt_len, max_new,
max_positions)`` lists — prefill, one single-position forward per committed
id, and no forward after the final commit.  The speculative decoder with a
drafting proposer batches positions into verify forwards, so for it only
the ids are compared.
"""

import numpy as np
import pytest

import repro.systems.decode as decode_module
from repro.cluster.spec import ClusterSpec
from repro.engine import (
    GPT2CachedSequencer,
    NgramProposer,
    SlotPool,
    SpeculativeSequencer,
    VoltageDecodeSequencer,
)
from repro.engine.clock import request_cost, step_cost
from repro.fleet.tiers import ReplicaTier
from repro.models import GPT2Model, tiny_config
from repro.models.greedy import forward_shapes
from repro.serving.arrivals import Request
from repro.systems.decode import generate_distributed, run_decode
from repro.systems.voltage import VoltageSystem

MAX_POSITIONS = 16

CASES = {  # name -> (prompt_len, max_new_tokens)
    "max-new-0": (5, 0),
    "max-new-1": (5, 1),
    "max-new-5": (5, 5),
    "prompt-1": (1, 5),
    "prompt-at-cap": (MAX_POSITIONS, 3),
    "crosses-cap": (MAX_POSITIONS - 2, 5),
}


@pytest.fixture
def gpt2():
    config = tiny_config(
        norm_style="pre", is_causal=True, type_vocab_size=0, num_layers=2,
        max_positions=MAX_POSITIONS,
    )
    return GPT2Model(config, rng=np.random.default_rng(21))


@pytest.fixture
def system(gpt2):
    return VoltageSystem(gpt2, ClusterSpec.homogeneous(2))


class _NeverDrafts:
    """A proposer with no guesses: every round is the base decode step."""

    def begin(self, ids):
        return None

    def propose(self, dstate, ids, k):
        return []


def _slot(num_layers: int):
    return SlotPool(1, num_layers=num_layers, capacity=MAX_POSITIONS).acquire()


def _run_sequencer(sequencer, prompt, slot, request_n=None):
    """Step one request to completion; returns (ids, per-step costs)."""
    request = Request(0.0, request_n or len(prompt), id=0)
    state = sequencer.begin(request, prompt, slot)
    costs, done = [], False
    while not done:
        done, cost = sequencer.step(state)
        costs.append(cost)
    return sequencer.result(state), costs


def _record_logits(monkeypatch, model, shapes):
    original = model.logits_cached

    def logits_cached(new_ids, offset, caches, workspace=None, all_positions=False):
        shapes.append((len(new_ids), offset))
        return original(new_ids, offset, caches, workspace=workspace, all_positions=all_positions)

    monkeypatch.setattr(model, "logits_cached", logits_cached)


def generate_cached(model, system, prompt, max_new, monkeypatch):
    shapes = []
    _record_logits(monkeypatch, model, shapes)
    return model.generate_cached(prompt, max_new_tokens=max_new), shapes


def cached_sequencer(model, system, prompt, max_new, monkeypatch):
    shapes = []
    _record_logits(monkeypatch, model, shapes)
    sequencer = GPT2CachedSequencer(model, max_new_tokens=max_new)
    return _run_sequencer(sequencer, prompt, _slot(model.num_layers))[0], shapes


def speculative_ngram(model, system, prompt, max_new, monkeypatch):
    sequencer = SpeculativeSequencer(model, proposer=NgramProposer(), max_new_tokens=max_new)
    return _run_sequencer(sequencer, prompt, _slot(model.num_layers))[0], None


def speculative_no_drafts(model, system, prompt, max_new, monkeypatch):
    shapes = []
    _record_logits(monkeypatch, model, shapes)
    sequencer = SpeculativeSequencer(model, proposer=_NeverDrafts(), max_new_tokens=max_new)
    return _run_sequencer(sequencer, prompt, _slot(model.num_layers))[0], shapes


def voltage_sequencer(model, system, prompt, max_new, monkeypatch):
    shapes = []
    with VoltageDecodeSequencer(system, max_new_tokens=max_new) as sequencer:
        session = sequencer.session()
        original = session.forward

        def forward(slot, new_ids, offset):
            shapes.append((len(new_ids), offset))
            return original(slot, new_ids, offset)

        monkeypatch.setattr(session, "forward", forward)
        ids, _ = _run_sequencer(sequencer, prompt, _slot(0))
    return ids, shapes


def distributed(model, system, prompt, max_new, monkeypatch):
    shapes = []
    original = decode_module.sharded_decode_step

    def step(model, layer_parts, shards, rank, new_ids, offset, *args, **kwargs):
        if rank == 0:
            shapes.append((len(new_ids), offset))
        return original(model, layer_parts, shards, rank, new_ids, offset, *args, **kwargs)

    monkeypatch.setattr(decode_module, "sharded_decode_step", step)
    ids, _ = generate_distributed(system, prompt, max_new_tokens=max_new)
    return ids, shapes


def emulated(model, system, prompt, max_new, monkeypatch):
    shapes = []
    original = decode_module.layer_forward_cached_kv
    first = model.layers[0]

    def layer_forward(layer, x, extend, offset, **kwargs):
        if layer is first:
            shapes.append((x.shape[0], offset))
        return original(layer, x, extend, offset, **kwargs)

    monkeypatch.setattr(decode_module, "layer_forward_cached_kv", layer_forward)
    return run_decode(system, prompt, max_new_tokens=max_new).output, shapes


DECODERS = {
    "generate_cached": generate_cached,
    "cached-sequencer": cached_sequencer,
    "speculative-ngram": speculative_ngram,
    "speculative-no-drafts": speculative_no_drafts,
    "voltage-sequencer": voltage_sequencer,
    "generate_distributed": distributed,
    "run_decode": emulated,
}


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("decoder", list(DECODERS))
def test_decoder_conforms(gpt2, system, monkeypatch, decoder, case):
    prompt_len, max_new = CASES[case]
    prompt = np.random.default_rng(prompt_len).integers(
        0, gpt2.config.vocab_size, size=prompt_len
    ).astype(np.int64)
    reference = gpt2.generate_cached(prompt, max_new_tokens=max_new)
    assert len(reference) == min(prompt_len + max_new, MAX_POSITIONS)

    ids, shapes = DECODERS[decoder](gpt2, system, prompt, max_new, monkeypatch)

    np.testing.assert_array_equal(ids, reference)
    if shapes is not None:
        assert shapes == forward_shapes(prompt_len, max_new, MAX_POSITIONS)


@pytest.mark.parametrize(
    "price", [step_cost, ReplicaTier("half", cost_scale=0.5, attention_rank=4).step_cost]
)
def test_request_cost_prices_a_clipped_prompt_as_the_sequencer_runs_it(gpt2, price):
    """A request asking for more context than the model has is clipped to
    ``max_positions``: one capped prefill, after which the decode stops."""
    sequencer = GPT2CachedSequencer(gpt2, max_new_tokens=4, step_cost=price)
    request_n = MAX_POSITIONS + 10
    prompt = sequencer.prompt_for(Request(0.0, request_n, id=0))
    assert len(prompt) == MAX_POSITIONS
    _, costs = _run_sequencer(sequencer, prompt, _slot(gpt2.num_layers), request_n)
    assert costs == [price(MAX_POSITIONS, 0)]
    assert request_cost(request_n, 4, MAX_POSITIONS, step=price) == sum(costs)
