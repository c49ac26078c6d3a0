"""The lean normalisation kernels are bit-identical to the numpy formulation.

``F.layer_norm`` runs ``np.mean``/``np.var``'s own ufunc sequence without
their wrappers and centres once; ``F.softmax`` calls the ``maximum``/``add``
reductions directly; the single-token cached-attention step skips a causal
mask that would block nothing.  Every decoder's lossless contract is
``np.array_equal`` against ``generate_cached``, so these kernels must match
the formulation they replaced byte for byte, not within a tolerance.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.orders import merge_heads
from repro.models.cache import LayerKVCache, _cached_attention, _project_qkv
from repro.models.config import tiny_config
from repro.models.gpt2 import GPT2Model
from repro.tensor import functional as F
from repro.tensor.workspace import Workspace

DTYPES = (np.float16, np.float32, np.float64)


def _reference_layer_norm(x, weight, bias, eps):
    mean = np.mean(x, axis=-1, keepdims=True)
    var = np.var(x, axis=-1, keepdims=True)
    denom = np.sqrt(var + eps)
    out = np.subtract(x, mean)
    np.divide(out, denom, out=out)
    if weight is not None:
        np.multiply(out, weight, out=out)
    if bias is not None:
        np.add(out, bias, out=out)
    return out


def _reference_softmax(x):
    x_max = np.max(x, axis=-1, keepdims=True)
    out = np.subtract(x, x_max)
    np.exp(out, out=out)
    np.divide(out, np.sum(out, axis=-1, keepdims=True), out=out)
    return out


@st.composite
def activations(draw):
    dtype = draw(st.sampled_from(DTYPES))
    rows = draw(st.integers(1, 400))
    width = draw(st.integers(1, 1024))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 30.0]))
    shift = draw(st.sampled_from([0.0, 5.0, -200.0]))
    x = (rng.standard_normal((rows, width)) * scale + shift).astype(dtype)
    weight = rng.standard_normal(width).astype(dtype)
    bias = rng.standard_normal(width).astype(dtype)
    return x, weight, bias


@settings(max_examples=80, deadline=None)
@given(case=activations(), affine=st.booleans(), use_out=st.booleans())
def test_layer_norm_matches_mean_var_formulation(case, affine, use_out):
    x, weight, bias = case
    if not affine:
        weight = bias = None
    with np.errstate(all="ignore"):  # float16 sums may overflow: both sides alike
        expected = _reference_layer_norm(x, weight, bias, 1e-5)
        out = np.empty_like(x) if use_out else None
        got = F.layer_norm(x, weight, bias, eps=1e-5, out=out)
    assert got.dtype == x.dtype
    assert got.tobytes() == expected.tobytes()
    if use_out:
        assert got is out


@settings(max_examples=80, deadline=None)
@given(case=activations(), mode=st.sampled_from(["fresh", "out", "in_place"]))
def test_softmax_matches_max_sum_formulation(case, mode):
    x = case[0]
    with np.errstate(all="ignore"):
        expected = _reference_softmax(x)
        if mode == "fresh":
            got = F.softmax(x, axis=-1)
        elif mode == "out":
            got = F.softmax(x, axis=-1, out=np.empty_like(x))
        else:
            got = x.copy()
            F.softmax(got, axis=-1, out=got)
    assert got.dtype == x.dtype
    assert got.tobytes() == expected.tobytes()


def test_layer_norm_with_out_laid_out_unlike_input():
    # a Fortran-ordered input reduces in a different order than a C-ordered
    # out buffer would, so this pairing keeps the np.mean/np.var path
    rng = np.random.default_rng(0)
    x = np.asfortranarray(rng.standard_normal((33, 70)).astype(np.float32))
    out = np.empty(x.shape, dtype=x.dtype)
    got = F.layer_norm(x, out=out)
    assert got.tobytes() == _reference_layer_norm(x, None, None, 1e-5).tobytes()


_MODEL = GPT2Model(
    tiny_config(norm_style="pre", is_causal=True, type_vocab_size=0, num_layers=1),
    rng=np.random.default_rng(5),
)


def _masked_reference(attention, x_new, cache, offset):
    """The cached step with the causal mask always built and applied."""
    t = x_new.shape[0]
    q, k_new, v_new = _project_qkv(attention, x_new, None)
    k_all, v_all = cache.append(k_new, v_new)
    scores = q @ k_all.transpose(0, 2, 1)
    np.divide(scores, math.sqrt(attention.head_dim), out=scores)
    mask = F.causal_mask(t, k_all.shape[1], offset=offset)
    assert mask.any() == (t > 1)  # a single token's mask blocks nothing
    scores[:, mask] = -1e30
    F.softmax(scores, axis=-1, out=scores)
    return merge_heads(scores @ v_all)


@settings(max_examples=40, deadline=None)
@given(
    cached=st.integers(0, 40),
    new=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    use_workspace=st.booleans(),
)
def test_cached_attention_skips_only_an_empty_mask(cached, new, seed, use_workspace):
    attention = _MODEL.layers[0].attention
    hidden = _MODEL.config.hidden_size
    rng = np.random.default_rng(seed)
    prefix = rng.standard_normal((cached, hidden)).astype(np.float32)
    x_new = rng.standard_normal((new, hidden)).astype(np.float32)

    caches = [LayerKVCache(), LayerKVCache()]
    if cached:
        for cache in caches:
            _cached_attention(attention, prefix, cache.append, 0, True, None)
    workspace = Workspace() if use_workspace else None
    lean = _cached_attention(attention, x_new, caches[0].append, cached, True, workspace)
    masked = _masked_reference(attention, x_new, caches[1], cached)
    assert lean.tobytes() == masked.tobytes()
