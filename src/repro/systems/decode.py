"""Distributed autoregressive decode with a position-sharded KV cache.

Extends Voltage's position-partitioned execution (paper Algorithm 2) from a
single forward pass to greedy generation.  The protocol keeps the paper's
data layout — every device owns a contiguous span of sequence positions —
but flips what is *partitioned*:

* **Compute is replicated.** Every rank runs the identical per-token step
  (embeddings, fused QKV, attention, FFN, LM head).  A single new token is
  one row of GEMM work; splitting it would change operand shapes and break
  the bitwise-conformance argument that lets ``repro.verify`` compare
  distributed decode against ``GPT2Model.generate_cached`` with
  ``np.array_equal`` rather than a tolerance.
* **KV storage is sharded.** Each rank's ``LayerKVCache`` holds only the
  rows of K/V whose positions fall inside its span, so per-rank cache
  memory drops to O(L·T/K).  Spans are fixed per request from
  ``scheme_for(capacity, layer)`` over the request's full capacity
  (``min(prompt + max_new, max_positions)``) so a row's owner never moves
  as the sequence grows.
* **Assembly is a lossless all-gather.** Before attention each rank
  gathers every peer's K/V shard rows in rank order — K and V stacked in
  one operand, so one all-gather per layer, as in the forward pass —
  reconstructing exactly the array a single-device cache would hold —
  shard spans partition ``[0, capacity)`` contiguously in rank order, so
  clipping each span to the filled prefix ``[0, total)`` and concatenating
  gives ``[0, total)`` bit-exactly.  K/V rows always cross the wire in
  their native dtype regardless of the system's lossy activation
  ``wire_dtype``: a rounded cache row would be re-read on every subsequent
  step and the error would compound, so the decode path never applies the
  forward pass's lossy wire encoding (INTERNALS §13).

That bullet describes ``attention="gathered"`` (PR 7, the lossless
baseline): bit-identical to ``generate_cached`` but replicating all
attention compute and moving ``2(K-1)tHF_H/K`` elements per layer per
step, growing with the sequence.  ``attention="distributed"`` instead
scores the new token only against the local shard and exchanges packed
per-head log-sum-exp stats (``K·H·(F_H+2)`` elements per layer, flat in
t); a deterministic rank-ordered combine (:mod:`repro.core.combine`)
reconstructs exact attention up to float re-association.  Cross-rank
outputs stay bit-identical — every rank combines the same gathered stats
in the same order — so only the comparison against the single device
moves to the verify harness's regime-2 closeness tolerance, and per-rank
score/context FLOPs drop to O(t/K).  See INTERNALS §14.

Two execution surfaces share the step kernel and the greedy state machine
(:class:`~repro.models.greedy.GreedyDecode`), so both run exactly the
forwards ``generate_cached`` runs:

* :func:`generate_distributed` — one-shot SPMD run over a real runtime
  (``ThreadedRuntime`` or ``ProcessRuntime``): every rank decodes the full
  sequence, gathering shards with ``ctx.all_gather``; the host asserts all
  ranks emitted identical tokens.
* :func:`run_decode` — host-side emulation of the same shard/merge
  protocol plus a simulated per-token latency timeline built from the
  decode-phase Γ model (``core.complexity.decode_step_flops``), mirrored
  analytically by ``bench.analytic.voltage_decode_latency``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.cluster.runtime import WorkerContext
from repro.cluster.timeline import LatencyBreakdown
from repro.core.combine import (
    combine_softmax_stats,
    local_softmax_stats,
    neutral_softmax_stats,
    pack_softmax_stats,
    unpack_softmax_stats,
)
from repro.core.complexity import (
    decode_comm_elements,
    decode_mode_cost,
    select_decode_order,
    select_order,
)
from repro.core.partition import Partition
from repro.models.cache import (
    LayerKVCache,
    layer_forward_cached_attention,
    layer_forward_cached_kv,
    merge_kv_shards,
    shard_kv_views,
)
from repro.models.greedy import GreedyDecode, forward_shapes
from repro.tensor.workspace import Workspace
from repro.systems.base import InferenceResult

__all__ = [
    "decode_capacity",
    "decode_layer_spans",
    "decode_stats_wire",
    "decode_step_pricing",
    "generate_distributed",
    "rank_forward",
    "run_decode",
    "sharded_decode_step",
]

# Token ids travel as int64 (the dtype generate_cached emits); K/V rows
# travel in the model's float32 compute dtype.  Neither is subject to the
# lossy activation wire_dtype — cache rows are re-read every step, so any
# rounding would compound across the whole generation.
_ID_ITEMSIZE = 8
_KV_ITEMSIZE = 4


def decode_capacity(model, prompt_len: int, max_new_tokens: int) -> int:
    """Cache capacity for a request — mirrors ``generate_cached`` exactly."""
    if prompt_len < 1:
        raise ValueError(f"prompt must hold at least one token, got {prompt_len}")
    if max_new_tokens < 0:
        raise ValueError(f"max_new_tokens must be >= 0, got {max_new_tokens}")
    return min(prompt_len + max_new_tokens, model.config.max_positions)


def decode_layer_spans(system, capacity: int) -> list[list[Partition]]:
    """Per-layer, per-rank position spans, fixed for the request's lifetime.

    Spans are drawn over the *capacity* (not the current length) so the
    owner of any position is a pure function of the request shape: rows
    never migrate between ranks as the sequence grows.
    """
    return [
        system.scheme_for(capacity, layer=index).positions(capacity)
        for index in range(system.model.num_layers)
    ]


def _append_span(
    part: Partition, shard: LayerKVCache, k_new: np.ndarray, v_new: np.ndarray, offset: int
) -> None:
    """Append the slice of the new K/V rows (positions ``offset`` onward)
    that falls inside ``part``'s span to that rank's shard — possibly none."""
    lo = max(part.start, offset)
    hi = min(part.stop, offset + k_new.shape[1])
    if hi > lo:
        shard.append(k_new[:, lo - offset : hi - offset], v_new[:, lo - offset : hi - offset])


def decode_stats_wire(wire_dtype: str) -> tuple[np.dtype, int]:
    """``(numpy dtype, itemsize)`` the combine stats cross the wire in.

    ``float16`` systems halve the stats frames too (the rounding error is
    covered by the closeness regime, exactly like activation rounding on
    the forward path); ``int8`` systems keep float32 stats — the affine
    int8 codec is calibrated per channel for activations, not for a
    running-max / normaliser pair whose dynamic range spans the whole
    score distribution.
    """
    if wire_dtype == "float16":
        return np.dtype(np.float16), 2
    return np.dtype(np.float32), 4


def _local_stats_packed(
    q: np.ndarray, part: Partition, shard: LayerKVCache, offset: int,
    heads: int, head_dim: int,
) -> np.ndarray:
    """One rank's packed ``(o, m, l)`` combine stats for its shard.

    A shard with no populated rows yet (trailing span before the sequence
    reaches it, or K > capacity) contributes the combine's neutral element.
    """
    k_shard, v_shard = shard_kv_views(shard, heads, head_dim, q.dtype)
    if k_shard.shape[1]:
        o, m, length = local_softmax_stats(
            q, k_shard, v_shard, shard_start=part.start, query_offset=offset
        )
    else:
        o, m, length = neutral_softmax_stats(
            q.shape[0], q.shape[1], q.shape[2], dtype=q.dtype
        )
    return pack_softmax_stats(o, m, length)


def sharded_decode_step(
    model,
    layer_parts: Sequence[Sequence[Partition]],
    shards: Sequence[LayerKVCache],
    rank: int,
    new_ids: Sequence[int],
    offset: int,
    gather_kv: Callable[[np.ndarray], np.ndarray] | None,
    workspace: Workspace | None = None,
    attention: str = "gathered",
    gather_stats: Callable[[np.ndarray], np.ndarray] | None = None,
) -> int:
    """One rank's view of one decode step.

    ``shards[i]`` is this rank's KV shard for layer ``i``.  With
    ``attention="gathered"`` the step is op-for-op ``generate_cached``'s:
    ``gather_kv`` assembles the full ``(2, H, total, F_H)`` K/V stack from
    every rank's stacked shard rows (one all-gather along axis 2) and the
    outputs are bit-identical to the single device.  With
    ``attention="distributed"`` the rank attends only against its local
    shard and ``gather_stats`` exchanges the packed log-sum-exp combine
    stats — exact up to float re-association (INTERNALS §14).
    """
    decode_mode_cost(attention)  # rejects unknown modes
    if attention == "gathered" and gather_kv is None:
        raise ValueError("gathered attention requires a gather_kv collective")
    if attention == "distributed" and gather_stats is None:
        raise ValueError("distributed attention requires a gather_stats collective")
    positions = np.arange(offset, offset + len(new_ids))
    x = model.embeddings.word(np.asarray(new_ids, dtype=np.int64))
    x = x + model.embeddings.position(positions)
    heads = model.config.num_heads
    head_dim = model.config.head_dim
    for index, layer in enumerate(model.layers):
        part, shard = layer_parts[index][rank], shards[index]
        if attention == "gathered":
            # append this rank's slice of the new rows, then gather every
            # rank's K and V shard rows in rank order in one collective —
            # value-identical to a full single-device cache append and read
            def extend(k_new, v_new, part=part, shard=shard):
                _append_span(part, shard, k_new, v_new, offset)
                k_all, v_all = gather_kv(shard_kv_views(shard, heads, head_dim, k_new.dtype))
                return k_all, v_all

            x = layer_forward_cached_kv(layer, x, extend, offset, workspace=workspace)
        else:
            # attend against the local shard only and exchange the packed
            # (o, m, l) stats, (K, H, P, F_H+2) in rank order, before the
            # rank-ordered log-sum-exp combine: every rank combines the same
            # stats in the same order, so all ranks agree bit for bit
            def attend(q, k_new, v_new, part=part, shard=shard):
                _append_span(part, shard, k_new, v_new, offset)
                packed = _local_stats_packed(q, part, shard, offset, heads, head_dim)
                gathered = gather_stats(packed)
                return combine_softmax_stats([unpack_softmax_stats(c) for c in gathered])

            x = layer_forward_cached_attention(layer, x, attend, workspace=workspace)
    logits = model.ln_f(x[-1]) @ model.embeddings.word.weight.data.T
    return int(np.argmax(logits))


def rank_forward(ctx: WorkerContext, system, layer_parts, attention: str = "gathered"):
    """One rank's greedy backend for one request: fresh KV shards over the
    rank's spans, its all-gather collectives, and
    :func:`sharded_decode_step` — looked up per call, so a wrapper installed
    on this module's attribute applies to ranks that are already running."""
    stats_dtype, _ = decode_stats_wire(system.wire_dtype)
    shards = [LayerKVCache(capacity=parts[ctx.rank].length or None) for parts in layer_parts]
    workspace = Workspace()

    def gather_kv(kv_shard):
        return ctx.all_gather(kv_shard, axis=2)

    def gather_stats(packed):
        # stats may round to float16 on the wire; they are *not* re-read on
        # later steps (unlike cache rows), so the error cannot compound — it
        # is a one-shot rounding covered by the closeness tolerance.  The
        # float32 upcast happens after the gather so the combine arithmetic
        # is identical on every rank.
        wire = packed.astype(stats_dtype, copy=False)
        return ctx.all_gather(wire[None], axis=0).astype(np.float32)

    def forward(new_ids, offset):
        return sharded_decode_step(
            system.model, layer_parts, shards, ctx.rank, new_ids, offset, gather_kv,
            workspace=workspace, attention=attention, gather_stats=gather_stats,
        )

    return forward


def generate_distributed(
    system, prompt_ids, max_new_tokens: int = 8, runtime=None, timeout=None,
    attention: str = "gathered",
):
    """Greedy decode on ``K`` ranks with position-sharded KV storage.

    Every rank runs the replicated token loop, holding only its span of
    each layer's K/V.  With ``attention="gathered"`` each step reassembles
    the full cache with one lossless ``all_gather`` per layer (K and V
    rows stacked) and the returned ``ids`` are bit-identical to
    ``model.generate_cached(prompt_ids, max_new_tokens)``.  With
    ``attention="distributed"`` each rank attends only against its local
    shard and the ranks exchange one packed stats all-gather per layer —
    per-step wire volume independent of the sequence length, outputs exact
    up to float re-association.  Either way every rank's token sequence is
    bit-identical across ranks (the combine is a deterministic rank-ordered
    reduction), which is asserted before returning ``(ids, stats)``.
    """
    from repro.cluster.process_runtime import resolve_runtime

    decode_mode_cost(attention)  # rejects unknown modes
    max_positions = system.model.config.max_positions
    ids0 = [int(token) for token in np.asarray(prompt_ids)]
    capacity = decode_capacity(system.model, len(ids0), max_new_tokens)
    layer_parts = decode_layer_spans(system, capacity)

    def worker(ctx: WorkerContext) -> np.ndarray:
        forward = rank_forward(ctx, system, layer_parts, attention)
        ids = GreedyDecode(ids0, max_new_tokens, max_positions).run(forward)
        return np.asarray(ids, dtype=np.int64)

    results, stats = resolve_runtime(runtime, system.k, timeout=timeout).run(worker)
    for rank in range(1, system.k):
        np.testing.assert_array_equal(
            results[rank], results[0],
            err_msg=f"rank {rank} decoded a different sequence than rank 0",
        )
    return results[0], stats


def decode_step_pricing(
    config,
    layer_parts: Sequence[Sequence[Partition]],
    added: int,
    total: int,
    attention: str = "gathered",
    stats_itemsize: int = 4,
):
    """Price one decode step — the single cost source shared by
    :func:`run_decode` and ``bench.analytic.voltage_decode_latency``.

    Driven by the per-mode cost table (``core.complexity.DECODE_MODE_COSTS``)
    so neither caller duplicates the formulas.  Returns ``(per_rank_flops,
    layer_collectives, per_device_bytes)``:

    - ``per_rank_flops[r]`` — rank ``r``'s whole-stack matmul FLOPs for the
      step (terminal LM head excluded; callers add it).  Gathered attention
      replicates the full-history step on every rank; distributed attention
      scores only the rank's local shard rows, so heterogeneous spans yield
      heterogeneous per-rank FLOPs.
    - ``layer_collectives[i]`` — the ordered all-gather chunk-byte lists
      layer ``i`` issues: one lossless gather of the stacked K and V rows
      when gathered, one packed-stats gather when distributed.
    - ``per_device_bytes`` — wire bytes one device receives across all
      layers this step (``sum(chunks) - max(chunks)`` per collective).
    """
    mode = decode_mode_cost(attention)
    k = len(layer_parts[0])
    heads, fh = config.num_heads, config.head_dim
    per_rank_flops = [0] * k
    layer_collectives: list[list[list[int]]] = []
    per_device_bytes = 0
    for parts in layer_parts:
        local_rows = [
            max(0, min(part.stop, total) - max(part.start, 0)) for part in parts
        ]
        for rank in range(k):
            per_rank_flops[rank] += mode.rank_flops(
                total, 1, config.hidden_size, fh, heads, config.ffn_dim,
                new_positions=added, local_rows=local_rows[rank],
            )
        if attention == "gathered":  # K and V rows in one stacked chunk
            chunk_bytes = [2 * heads * rows * fh * _KV_ITEMSIZE for rows in local_rows]
        else:
            chunk_bytes = [heads * added * (fh + 2) * stats_itemsize] * k
        layer_collectives.append([chunk_bytes])
        per_device_bytes += sum(chunk_bytes) - max(chunk_bytes)
    return per_rank_flops, layer_collectives, per_device_bytes


def run_decode(
    system, prompt_ids, max_new_tokens: int = 8, attention: str = "gathered"
) -> InferenceResult:
    """Host-emulated sharded decode with a simulated per-token timeline.

    Runs the identical shard/append protocol as
    :func:`generate_distributed` (one ``LayerKVCache`` shard per rank per
    layer; rank-order K/V concatenation when gathered, per-shard local
    stats plus the rank-ordered log-sum-exp combine when distributed —
    including the wire-dtype round trip, so the emulated tokens are
    bit-identical to the runtime's) in a single process, pricing each step
    through :func:`decode_step_pricing`.  The phase sequence is mirrored
    exactly by ``bench.analytic.voltage_decode_latency``.
    """
    decode_mode_cost(attention)  # rejects unknown modes
    model = system.model
    config = model.config
    sim = system.sim
    k = system.k
    heads, head_dim = config.num_heads, config.head_dim
    ids0 = [int(token) for token in np.asarray(prompt_ids)]
    capacity = decode_capacity(model, len(ids0), max_new_tokens)
    layer_parts = decode_layer_spans(system, capacity)
    rank_shards = [
        [LayerKVCache(capacity=part.length or None) for part in parts]
        for parts in layer_parts
    ]
    workspace = Workspace()
    stats_dtype, stats_itemsize = decode_stats_wire(system.wire_dtype)
    comm_phase = (
        "kv shard all-gather" if attention == "gathered" else "combine stats all-gather"
    )

    latency = LatencyBreakdown()
    latency.add("broadcast prompt", "comm", sim.broadcast(_ID_ITEMSIZE * len(ids0)))

    per_token_seconds: list[float] = []
    uncached_orders: list[str] = []
    per_step_comm_bytes: list[int] = []
    kv_gather_bytes = 0
    combine_bytes = 0
    final_logits: np.ndarray | None = None
    final_logits_prefix = 0

    def account_step(added: int, total: int) -> None:
        nonlocal kv_gather_bytes, combine_bytes
        per_rank_flops, layer_collectives, step_bytes = decode_step_pricing(
            config, layer_parts, added, total,
            attention=attention, stats_itemsize=stats_itemsize,
        )
        post_flops = model.postprocess_flops(total)
        compute_s = sim.compute_makespan([flops + post_flops for flops in per_rank_flops])
        comm_s = 0.0
        for collectives in layer_collectives:
            for chunk_bytes in collectives:
                comm_s += sim.all_gather(chunk_bytes)
        if attention == "gathered":
            kv_gather_bytes += step_bytes
        else:
            combine_bytes += step_bytes
        per_step_comm_bytes.append(step_bytes)
        step_index = len(per_token_seconds)
        latency.add("decode step compute", "compute", compute_s, layer=step_index)
        latency.add(comm_phase, "comm", comm_s, layer=step_index)
        per_token_seconds.append(compute_s + comm_s)
        if added == total:
            order = select_order(total, added, config.hidden_size, config.head_dim)
        else:
            order = select_decode_order(
                total, config.hidden_size, config.head_dim, cached=False
            )
        uncached_orders.append("eq8" if order.is_reordered else "eq3")

    def step(new_ids, offset):
        nonlocal final_logits, final_logits_prefix
        added = len(new_ids)
        total = offset + added
        positions = np.arange(offset, offset + added)
        x = model.embeddings.word(np.asarray(new_ids, dtype=np.int64))
        x = x + model.embeddings.position(positions)
        for index, layer in enumerate(model.layers):
            parts = layer_parts[index]
            shards = rank_shards[index]

            # The emulation appends to the owning rank's shard for each
            # layer, then merges every shard in rank order — the same
            # values every rank would assemble from a real all-gather.
            def extend(k_new, v_new, parts=parts, shards=shards):
                for part, shard in zip(parts, shards):
                    _append_span(part, shard, k_new, v_new, offset)
                return merge_kv_shards(shards)

            # Distributed attention: append as above, then compute every
            # rank's local stats, round-trip them through the wire dtype
            # (exactly as the runtime's stats all-gather does) and run the
            # rank-ordered combine every rank runs.
            def attend(q, k_new, v_new, parts=parts, shards=shards):
                for part, shard in zip(parts, shards):
                    _append_span(part, shard, k_new, v_new, offset)
                gathered = [
                    _local_stats_packed(q, part, shard, offset, heads, head_dim)
                    .astype(stats_dtype, copy=False)
                    .astype(np.float32)
                    for part, shard in zip(parts, shards)
                ]
                return combine_softmax_stats(
                    [unpack_softmax_stats(chunk) for chunk in gathered]
                )

            if attention == "gathered":
                x = layer_forward_cached_kv(layer, x, extend, offset, workspace=workspace)
            else:
                x = layer_forward_cached_attention(layer, x, attend, workspace=workspace)
        logits = model.ln_f(x[-1]) @ model.embeddings.word.weight.data.T
        final_logits, final_logits_prefix = logits, total
        account_step(added, total)
        return int(np.argmax(logits))

    ids = GreedyDecode(ids0, max_new_tokens, config.max_positions).run(step)
    output = np.asarray(ids, dtype=np.int64)
    latency.add(
        "gather output to terminal", "comm", sim.point_to_point(_ID_ITEMSIZE * len(ids))
    )

    comm_elements = model.num_layers * sum(
        decode_comm_elements(attention, offset + added, heads, head_dim, k, new_positions=added)
        for added, offset in forward_shapes(len(ids0), max_new_tokens, config.max_positions)
    )
    meta = {
        "system": "voltage-decode",
        "devices": k,
        "decode_attention": attention,
        "prompt_tokens": len(ids0),
        "tokens": len(ids),
        "capacity": capacity,
        "steps": len(per_token_seconds),
        "per_token_seconds": per_token_seconds,
        "kv_gather_bytes_per_device": int(kv_gather_bytes),
        "combine_bytes_per_device": int(combine_bytes),
        "per_step_comm_bytes_per_device": per_step_comm_bytes,
        "kv_gather_elements_analytic": comm_elements if attention == "gathered" else 0,
        "combine_elements_analytic": comm_elements if attention == "distributed" else 0,
        "cached_order": "eq3",
        "uncached_orders": uncached_orders,
        "shard_spans": [[part.start, part.stop] for part in layer_parts[0]],
        "final_logits": final_logits,
        "final_logits_prefix": final_logits_prefix,
    }
    return InferenceResult(output=output, latency=latency, meta=meta)

