"""Numerically stable functional building blocks for transformer inference.

All functions take and return ``numpy.ndarray`` objects and never mutate
their inputs.  Shapes follow the paper's notation where the last axis is the
feature axis ``F`` and the second-to-last axis is the sequence (position)
axis ``N``.

The element-wise/normalisation kernels (``softmax``, ``log_softmax``,
``layer_norm``, ``gelu``, ``relu``) accept an optional ``out=`` scratch
buffer so hot loops (KV-cached decoding) can reuse one workspace instead of
allocating per op.  ``out`` must match the input's shape and dtype exactly —
the kernels refuse silently-casting buffers.  With or without ``out`` the
arithmetic is the same ufunc sequence, so results are bit-identical.

Dtype policy: the output dtype always equals the input dtype.  Python-float
constants are weak scalars under NEP 50 and never upcast; the dtype
preservation tests pin this for float16/32/64 through every kernel.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "softmax",
    "log_softmax",
    "layer_norm",
    "relu",
    "gelu",
    "linear",
    "embedding",
    "scaled_dot_product_attention",
    "causal_mask",
    "cross_entropy",
]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _check_out(x: np.ndarray, out: np.ndarray | None) -> None:
    """Scratch buffers must match exactly — no silent casts or broadcasts."""
    if out is None:
        return
    if out.shape != x.shape:
        raise ValueError(f"out shape {out.shape} does not match input {x.shape}")
    if out.dtype != x.dtype:
        raise ValueError(f"out dtype {out.dtype} does not match input {x.dtype}")


def softmax(x: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Stable softmax along ``axis``.

    Subtracts the running maximum before exponentiation so that large
    attention logits (e.g. unscaled ``QK^T`` values) do not overflow in
    float32.  ``out`` may alias ``x`` for fully in-place operation.
    """
    _check_out(x, out)
    # the ufunc reductions np.max / np.sum run, minus their Python wrappers
    x_max = np.maximum.reduce(x, axis=axis, keepdims=True)
    out = np.subtract(x, x_max, out=out) if out is not None else np.subtract(x, x_max)
    np.exp(out, out=out)
    denom = np.add.reduce(out, axis=axis, keepdims=True)
    np.divide(out, denom, out=out)
    return out


def log_softmax(x: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Stable log-softmax along ``axis``.  ``out`` may alias ``x``."""
    _check_out(x, out)
    x_max = np.max(x, axis=axis, keepdims=True)
    out = np.subtract(x, x_max, out=out) if out is not None else np.subtract(x, x_max)
    lse = np.log(np.sum(np.exp(out), axis=axis, keepdims=True))
    np.subtract(out, lse, out=out)
    return out


def layer_norm(
    x: np.ndarray,
    weight: np.ndarray | None = None,
    bias: np.ndarray | None = None,
    eps: float = 1e-5,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Layer normalisation over the last axis (Ba et al., 2016).

    Matches the transformer usage in the paper: applied position-wise, i.e.
    each row of the ``(N, F)`` activation is normalised independently, which
    is what makes the operation partitionable by position.

    Float32/64 inputs run the exact ufunc sequence of ``np.mean`` and
    ``np.var`` (sum-reduce, then an unsafe-cast divide by the ``intp``
    count) but centre ``x`` once, into ``out``, and square a copy of that —
    ``np.var`` would recompute the mean and centre again.  The reductions
    see arrays of the same layout as ``np.var``'s own temporaries, so the
    result is bit-identical to the ``np.mean``/``np.var`` formulation, which
    float16 (whose mean accumulates in float32) and any ``out`` laid out
    unlike ``x`` still run.
    """
    _check_out(x, out)
    if x.dtype.kind == "f" and x.dtype.itemsize > 2 and (out is None or out.strides == x.strides):
        count = np.intp(x.shape[-1])
        mean = np.add.reduce(x, axis=-1, keepdims=True)
        np.true_divide(mean, count, out=mean, casting="unsafe")
        out = np.subtract(x, mean, out=out) if out is not None else np.subtract(x, mean)
        var = np.add.reduce(np.square(out), axis=-1, keepdims=True)
        np.true_divide(var, count, out=var, casting="unsafe")
    else:
        mean = np.mean(x, axis=-1, keepdims=True)
        var = np.var(x, axis=-1, keepdims=True)
        out = np.subtract(x, mean, out=out) if out is not None else np.subtract(x, mean)
    denom = np.sqrt(var + eps)
    np.divide(out, denom, out=out)
    if weight is not None:
        np.multiply(out, weight, out=out)
    if bias is not None:
        np.add(out, bias, out=out)
    return out


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rectified linear unit, the FFN activation of the original transformer."""
    _check_out(x, out)
    return np.maximum(x, 0.0, out=out) if out is not None else np.maximum(x, 0.0)


def gelu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Gaussian error linear unit (tanh approximation, as used by BERT/GPT-2).

    ``0.5 · x · (1 + tanh(√(2/π) · (x + 0.044715 x³)))`` — evaluated as a
    ufunc chain into ``out`` (which must not alias ``x``: the input is read
    again after the tanh).
    """
    _check_out(x, out)
    if out is x:
        raise ValueError("gelu out buffer must not alias the input")
    out = np.multiply(x, 0.044715, out=out) if out is not None else np.multiply(x, 0.044715)
    np.multiply(out, x, out=out)
    np.multiply(out, x, out=out)
    np.add(out, x, out=out)
    np.multiply(out, _SQRT_2_OVER_PI, out=out)
    np.tanh(out, out=out)
    np.add(out, 1.0, out=out)
    np.multiply(out, x, out=out)
    np.multiply(out, 0.5, out=out)
    return out


ACTIVATIONS = {"relu": relu, "gelu": gelu}


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Affine map ``x @ weight + bias``.

    ``weight`` is stored ``(in_features, out_features)`` — the same
    orientation as the paper's ``W_Q, W_K, W_V in R^{F x F_H}`` — so no
    transpose is needed and FLOP counting matches the paper's Γ(·) directly.
    """
    out = x @ weight
    if bias is not None:
        out = out + bias
    return out


def embedding(ids: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Row lookup: maps integer ids of shape ``(...,)`` to ``(..., F)``."""
    ids = np.asarray(ids)
    if np.any(ids < 0) or np.any(ids >= table.shape[0]):
        raise IndexError(
            f"embedding ids out of range [0, {table.shape[0]}): "
            f"min={ids.min()}, max={ids.max()}"
        )
    return table[ids]


def causal_mask(n_query: int, n_key: int, offset: int = 0) -> np.ndarray:
    """Boolean mask of shape ``(n_query, n_key)``; True = *blocked* entry.

    ``offset`` is the absolute position of query row 0, which is how a
    position-partitioned decoder layer builds the correct mask for its slice:
    query row ``i`` (absolute position ``offset + i``) may attend to key
    positions ``<= offset + i``.
    """
    q_pos = np.arange(n_query)[:, None] + offset
    k_pos = np.arange(n_key)[None, :]
    return k_pos > q_pos


def scaled_dot_product_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Reference attention ``softmax(QK^T / sqrt(d)) V``.

    Accepts ``(..., N, d)`` tensors with any leading batch/head axes.  Used
    as the ground-truth oracle in tests; the partitioned computation orders
    in :mod:`repro.core.orders` must match it exactly.
    """
    d = q.shape[-1]
    scores = q @ np.swapaxes(k, -1, -2) / math.sqrt(d)
    if mask is not None:
        scores = np.where(mask, -1e30, scores)
    return softmax(scores, axis=-1) @ v


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of ``labels`` under ``logits``.

    Only used by example applications to show end-to-end task wiring; the
    paper's evaluation is latency-only.
    """
    logp = log_softmax(logits, axis=-1)
    rows = np.arange(logits.shape[0])
    return float(-np.mean(logp[rows, labels]))
