"""Conformance tests for distributed decode (``repro.systems.decode``).

The acceptance matrix from ISSUE 7: distributed greedy decode must be
bit-identical to single-device ``generate_cached`` across device counts
{1, 2, 4}, wire dtypes {float32, float16, int8} and runtimes
{threaded, process}.  The wire-dtype axis is deliberately included even
though decode K/V rows always travel lossless: a system configured for
lossy *activation* encoding must not let that encoding leak into the
decode path.
"""

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.bench.analytic import voltage_decode_latency
from repro.models.config import tiny_config
from repro.models.gpt2 import GPT2Model
from repro.models.greedy import forward_shapes
from repro.systems.decode import (
    decode_capacity,
    decode_layer_spans,
    generate_distributed,
    run_decode,
)
from repro.systems.voltage import VoltageSystem


@pytest.fixture(scope="module")
def gpt2():
    config = tiny_config(
        norm_style="pre", is_causal=True, type_vocab_size=0, num_layers=2
    )
    return GPT2Model(config, rng=np.random.default_rng(3))


@pytest.fixture(scope="module")
def prompt(gpt2):
    rng = np.random.default_rng(9)
    return rng.integers(0, gpt2.config.vocab_size, size=7).astype(np.int64)


def _system(gpt2, k, wire_dtype="float32"):
    speeds = [5.0, 3.0, 2.0, 1.0][:k]
    cluster = ClusterSpec.heterogeneous(speeds, bandwidth_mbps=100.0)
    return VoltageSystem(gpt2, cluster, wire_dtype=wire_dtype)


class TestBitIdentityMatrix:
    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("wire_dtype", ["float32", "float16", "int8"])
    def test_threaded_matches_generate_cached(self, gpt2, prompt, k, wire_dtype):
        reference = gpt2.generate_cached(prompt, max_new_tokens=5)
        system = _system(gpt2, k, wire_dtype)
        ids, _ = generate_distributed(system, prompt, max_new_tokens=5)
        np.testing.assert_array_equal(ids, reference)
        result = run_decode(system, prompt, max_new_tokens=5)
        np.testing.assert_array_equal(result.output, reference)

    @pytest.mark.parametrize("k", [2, 4])
    def test_process_matches_generate_cached(self, gpt2, prompt, k):
        reference = gpt2.generate_cached(prompt, max_new_tokens=3)
        system = _system(gpt2, k)
        ids, stats = generate_distributed(
            system, prompt, max_new_tokens=3, runtime="process"
        )
        np.testing.assert_array_equal(ids, reference)
        # decode traffic crossed real sockets
        assert sum(s.bytes_sent for s in stats) > 0

    def test_heterogeneous_auto_scheme(self, gpt2, prompt):
        cluster = ClusterSpec.heterogeneous([7.0, 1.0, 4.0], bandwidth_mbps=50.0)
        system = VoltageSystem(gpt2, cluster, scheme="auto")
        reference = gpt2.generate_cached(prompt, max_new_tokens=4)
        ids, _ = generate_distributed(system, prompt, max_new_tokens=4)
        np.testing.assert_array_equal(ids, reference)


class TestRunDecodeAccounting:
    def test_analytic_mirror_matches_phase_by_phase(self, gpt2, prompt):
        system = _system(gpt2, 3)
        result = run_decode(system, prompt, max_new_tokens=4)
        modelled = voltage_decode_latency(
            gpt2.config, len(prompt), 4, system.cluster
        )
        assert len(result.latency.phases) == len(modelled.phases)
        for ours, theirs in zip(result.latency.phases, modelled.phases):
            assert (ours.name, ours.kind) == (theirs.name, theirs.kind)
            assert ours.seconds == pytest.approx(theirs.seconds, rel=1e-9)

    def test_meta_structure(self, gpt2, prompt):
        system = _system(gpt2, 2)
        result = run_decode(system, prompt, max_new_tokens=4)
        meta = result.meta
        assert meta["system"] == "voltage-decode"
        assert meta["devices"] == 2
        assert meta["prompt_tokens"] == len(prompt)
        assert meta["tokens"] == len(prompt) + 4
        assert meta["steps"] == len(meta["per_token_seconds"])
        assert meta["cached_order"] == "eq3"
        assert len(meta["uncached_orders"]) == meta["steps"]
        # spans cover the capacity contiguously
        spans = meta["shard_spans"]
        assert spans[0][0] == 0 and spans[-1][1] == meta["capacity"]

    def test_single_device_has_no_gather_traffic(self, gpt2, prompt):
        system = _system(gpt2, 1)
        result = run_decode(system, prompt, max_new_tokens=3)
        assert result.meta["kv_gather_bytes_per_device"] == 0

    def test_gather_traffic_grows_with_devices(self, gpt2, prompt):
        by_k = {
            k: run_decode(_system(gpt2, k), prompt, max_new_tokens=3).meta[
                "kv_gather_bytes_per_device"
            ]
            for k in (2, 4)
        }
        assert by_k[4] > by_k[2] > 0


class TestDistributedAttention:
    """The ISSUE 8 matrix: local-shard attention + log-sum-exp combine must
    reproduce ``generate_cached`` token-for-token under greedy decode across
    device counts, wire dtypes and runtimes (the fixtures' logit gaps are
    far wider than the combine's re-association noise)."""

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("wire_dtype", ["float32", "float16", "int8"])
    def test_threaded_matches_generate_cached(self, gpt2, prompt, k, wire_dtype):
        reference = gpt2.generate_cached(prompt, max_new_tokens=5)
        system = _system(gpt2, k, wire_dtype)
        ids, _ = generate_distributed(
            system, prompt, max_new_tokens=5, attention="distributed"
        )
        np.testing.assert_array_equal(ids, reference)
        result = run_decode(system, prompt, max_new_tokens=5, attention="distributed")
        np.testing.assert_array_equal(result.output, reference)

    @pytest.mark.parametrize("k", [2, 4])
    def test_process_matches_generate_cached(self, gpt2, prompt, k):
        reference = gpt2.generate_cached(prompt, max_new_tokens=3)
        system = _system(gpt2, k)
        ids, stats = generate_distributed(
            system, prompt, max_new_tokens=3, runtime="process",
            attention="distributed",
        )
        np.testing.assert_array_equal(ids, reference)
        assert sum(s.bytes_sent for s in stats) > 0

    def test_rejects_unknown_mode(self, gpt2, prompt):
        system = _system(gpt2, 2)
        with pytest.raises(ValueError, match="attention"):
            run_decode(system, prompt, max_new_tokens=2, attention="ring")

    def test_final_logits_within_closeness(self, gpt2, prompt):
        from repro.verify.tolerances import decode_logits_close

        system = _system(gpt2, 4, "float16")
        result = run_decode(system, prompt, max_new_tokens=4, attention="distributed")
        prefix = result.meta["final_logits_prefix"]
        reference = gpt2.forward(result.output[:prefix])
        assert decode_logits_close(result.meta["final_logits"], reference, "float16")


class TestDistributedAttentionEdgeCases:
    """Degenerate geometries, vs ``generate_cached``, on both runtimes."""

    @pytest.mark.parametrize("runtime", ["threaded", "process"])
    def test_prompt_length_one(self, gpt2, runtime):
        prompt = np.asarray([11], dtype=np.int64)
        reference = gpt2.generate_cached(prompt, max_new_tokens=4)
        ids, _ = generate_distributed(
            _system(gpt2, 2), prompt, max_new_tokens=4, runtime=runtime,
            attention="distributed",
        )
        np.testing.assert_array_equal(ids, reference)

    @pytest.mark.parametrize("runtime", ["threaded", "process"])
    def test_prompt_ends_on_span_boundary(self, gpt2, runtime):
        # K=2 even spans over capacity 10: the 5-token prompt exactly fills
        # rank 0's span, so rank 1 starts empty and fills from step 1 on
        prompt = np.arange(5, dtype=np.int64) % gpt2.config.vocab_size
        system = VoltageSystem(gpt2, ClusterSpec.homogeneous(2))
        spans = decode_layer_spans(system, 10)
        assert spans[0][0].stop == 5, "fixture must split exactly at the prompt"
        reference = gpt2.generate_cached(prompt, max_new_tokens=5)
        ids, _ = generate_distributed(
            system, prompt, max_new_tokens=5, runtime=runtime,
            attention="distributed",
        )
        np.testing.assert_array_equal(ids, reference)

    @pytest.mark.parametrize("max_new_tokens", [0, 1])
    def test_tiny_generations(self, gpt2, prompt, max_new_tokens):
        reference = gpt2.generate_cached(prompt, max_new_tokens=max_new_tokens)
        ids, _ = generate_distributed(
            _system(gpt2, 3), prompt, max_new_tokens=max_new_tokens,
            attention="distributed",
        )
        np.testing.assert_array_equal(ids, reference)
        result = run_decode(
            _system(gpt2, 3), prompt, max_new_tokens=max_new_tokens,
            attention="distributed",
        )
        np.testing.assert_array_equal(result.output, reference)

    @pytest.mark.parametrize("runtime", ["threaded", "process"])
    def test_rank_with_empty_span_at_step_zero(self, gpt2, runtime):
        # prompt 3 over K=4 even spans of capacity 8 (span length 2): ranks
        # 2 and 3 hold nothing at the prefill step and must emit neutral
        # stats rather than skewing the combine
        prompt = np.asarray([2, 5, 8], dtype=np.int64)
        system = VoltageSystem(gpt2, ClusterSpec.homogeneous(4))
        spans = decode_layer_spans(system, 8)
        assert all(part.start >= 3 for part in spans[0][2:])
        reference = gpt2.generate_cached(prompt, max_new_tokens=5)
        ids, _ = generate_distributed(
            system, prompt, max_new_tokens=5, runtime=runtime,
            attention="distributed",
        )
        np.testing.assert_array_equal(ids, reference)


class TestDistributedAttentionAccounting:
    def test_per_step_bytes_flat_vs_growing(self, gpt2, prompt):
        gathered = run_decode(_system(gpt2, 2), prompt, max_new_tokens=5)
        distributed = run_decode(
            _system(gpt2, 2), prompt, max_new_tokens=5, attention="distributed"
        )
        g_steps = gathered.meta["per_step_comm_bytes_per_device"][1:]
        d_steps = distributed.meta["per_step_comm_bytes_per_device"][1:]
        assert len(set(d_steps)) == 1, "combine traffic must be flat in t"
        assert g_steps == sorted(g_steps) and g_steps[-1] > g_steps[0]

    def test_combine_bytes_exact(self, gpt2, prompt):
        from repro.core.complexity import decode_combine_elements

        system = _system(gpt2, 3)
        result = run_decode(system, prompt, max_new_tokens=4, attention="distributed")
        config = gpt2.config
        expected = 0
        for added, _ in forward_shapes(len(prompt), 4, config.max_positions):
            per_rank = decode_combine_elements(
                config.num_heads, config.head_dim, 1, new_positions=added
            )
            expected += config.num_layers * 2 * per_rank * 4  # (K-1)=2, float32
        assert result.meta["combine_bytes_per_device"] == expected
        assert result.meta["decode_attention"] == "distributed"

    def test_analytic_mirror_matches_phase_by_phase(self, gpt2, prompt):
        system = _system(gpt2, 3)
        result = run_decode(system, prompt, max_new_tokens=4, attention="distributed")
        modelled = voltage_decode_latency(
            gpt2.config, len(prompt), 4, system.cluster, attention="distributed"
        )
        assert len(result.latency.phases) == len(modelled.phases)
        for ours, theirs in zip(result.latency.phases, modelled.phases):
            assert (ours.name, ours.kind) == (theirs.name, theirs.kind)
            assert ours.seconds == pytest.approx(theirs.seconds, rel=1e-9)
        assert any(p.name == "combine stats all-gather" for p in modelled.phases)

    def test_single_device_has_no_combine_traffic(self, gpt2, prompt):
        result = run_decode(
            _system(gpt2, 1), prompt, max_new_tokens=3, attention="distributed"
        )
        assert result.meta["combine_bytes_per_device"] == 0


class TestStepTotals:
    def test_plain_run(self):
        # prefill, then one forward per committed token except the last:
        # no forward runs after the final commit, so three forwards
        assert forward_shapes(7, 3, 64) == [(7, 0), (1, 7), (1, 8)]

    def test_zero_new_tokens(self):
        assert forward_shapes(7, 0, 64) == [(7, 0)]

    def test_cap_skips_final_step(self):
        # prompt 6, cap 8: append to 7 (step), append to 8 (>= cap, no step)
        assert forward_shapes(6, 4, 8) == [(6, 0), (1, 6)]

    def test_prompt_at_cap(self):
        assert forward_shapes(8, 4, 8) == [(8, 0)]


class TestSpans:
    def test_capacity_caps_at_max_positions(self, gpt2):
        capacity = decode_capacity(gpt2, 60, 10)
        assert capacity == gpt2.config.max_positions

    def test_layer_spans_partition_capacity(self, gpt2):
        system = _system(gpt2, 3)
        spans = decode_layer_spans(system, 10)
        assert len(spans) == gpt2.num_layers
        for parts in spans:
            cursor = 0
            for part in parts:
                assert part.start == cursor
                cursor = part.stop
            assert cursor == 10

    def test_rejects_empty_prompt(self, gpt2):
        with pytest.raises(ValueError, match="at least one"):
            decode_capacity(gpt2, 0, 4)
