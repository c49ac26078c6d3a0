"""GPT-2-style causal decoder with a tied language-model head."""

from __future__ import annotations

import numpy as np

from repro.models.base import TransformerModel
from repro.models.config import TransformerConfig, gpt2_config
from repro.models.embeddings import TextEmbeddings
from repro.models.tokenizer import SimpleTokenizer
from repro.tensor.layers import LayerNorm

__all__ = ["GPT2Model"]


class GPT2Model(TransformerModel):
    """GPT-2: pre-LN causal transformer, final layer norm, tied LM head.

    The paper deploys GPT-2 for text classification with a 200-word input —
    a single forward pass over the prompt, which is what the distributed
    systems execute.  :meth:`generate` additionally provides greedy
    autoregressive decoding as an example-level extension.
    """

    def __init__(
        self,
        config: TransformerConfig | None = None,
        rng: np.random.Generator | None = None,
    ):
        config = config if config is not None else gpt2_config()
        if not config.is_causal or config.norm_style != "pre":
            raise ValueError("GPT2Model requires a causal, pre-LN configuration")
        rng = rng if rng is not None else np.random.default_rng(0)
        super().__init__(config, rng=rng)
        self.embeddings = TextEmbeddings(
            vocab_size=config.vocab_size,
            hidden_size=config.hidden_size,
            max_positions=config.max_positions,
            type_vocab_size=0,
            use_layer_norm=False,  # GPT-2 does not normalise embeddings
            rng=rng,
        )
        self.ln_f = LayerNorm(config.hidden_size, eps=config.layer_norm_eps)
        self.tokenizer = SimpleTokenizer(config.vocab_size, add_special_tokens=False)

    def preprocess(self, raw) -> np.ndarray:
        if isinstance(raw, str):
            raw = self.tokenizer.encode(raw, max_length=self.config.max_positions)
        return self.embeddings(np.asarray(raw))

    def final_norm(self, x: np.ndarray) -> np.ndarray:
        return self.ln_f(x)

    def postprocess(self, hidden: np.ndarray) -> np.ndarray:
        """Last-position hidden state → next-token logits ``(vocab,)``.

        Tied to the input embedding (GPT-2's weight tying).  Classification
        and greedy decoding both read only the final position, so the
        terminal device computes one ``F × vocab`` product rather than N.
        Use :meth:`lm_logits` for the full ``(N, vocab)`` matrix.
        """
        return hidden[-1] @ self.embeddings.word.weight.data.T

    def lm_logits(self, hidden: np.ndarray) -> np.ndarray:
        """Full-sequence language-model logits ``(N, vocab)``."""
        return hidden @ self.embeddings.word.weight.data.T

    def next_token(self, token_ids: np.ndarray) -> int:
        """Greedy next-token prediction from the last position."""
        logits = self.forward(np.asarray(token_ids))
        return int(np.argmax(logits))

    def postprocess_flops(self, n: int) -> int:
        """Tied LM head on the last position: F × vocab."""
        return self.config.hidden_size * self.config.vocab_size

    def logits_cached(
        self,
        new_ids,
        offset: int,
        caches,
        workspace=None,
        all_positions: bool = False,
    ) -> np.ndarray:
        """One KV-cached forward over ``new_ids`` at ``offset``, returning
        LM-head logits — the exact op sequence of :meth:`generate_cached`'s
        inner step, against caller-owned per-layer caches (``caches`` is a
        sequence of :class:`~repro.models.cache.LayerKVCache`, e.g. an
        engine slot's).

        By default only the last position's logits come back (``(vocab,)``,
        the greedy-decode head).  ``all_positions=True`` returns the full
        ``(t, vocab)`` matrix — the multi-position *verify* forward of
        speculative decoding, which needs the target's argmax at every
        drafted position from one batched pass.
        """
        from repro.models.cache import layer_forward_cached

        positions = np.arange(offset, offset + len(new_ids))
        x = self.embeddings.word(np.asarray(new_ids, dtype=np.int64))
        x = x + self.embeddings.position(positions)
        for layer, layer_cache in zip(self.layers, caches):
            x = layer_forward_cached(layer, x, layer_cache, workspace=workspace)
        hidden = self.ln_f(x) if all_positions else self.ln_f(x[-1])
        return hidden @ self.embeddings.word.weight.data.T

    def truncated_draft(self, num_layers: int = 1) -> "GPT2Model":
        """A shallower draft model for speculative decoding: shares this
        model's embeddings, first ``num_layers`` transformer layers and
        final norm *by reference* — no extra weights, same tokenizer and
        vocab, so its greedy proposals track the full model closely while
        each draft forward runs ``num_layers / L`` of the layer stack."""
        from repro.tensor.module import ModuleList

        if not 1 <= num_layers < self.num_layers:
            raise ValueError(
                f"draft depth must be in [1, {self.num_layers - 1}], got {num_layers}"
            )
        config = self.config.scaled(
            num_layers=num_layers, name=f"{self.config.name}-draft{num_layers}"
        )
        draft = GPT2Model(config, rng=np.random.default_rng(0))
        draft.embeddings = self.embeddings
        draft.layers = ModuleList(list(self.layers)[:num_layers])
        draft.ln_f = self.ln_f
        draft.tokenizer = self.tokenizer
        return draft

    def generate_cached(self, prompt_ids: np.ndarray, max_new_tokens: int = 8) -> np.ndarray:
        """Greedy decoding with a KV cache: prefill once, then O(1) steps.

        Emits exactly the same tokens as :meth:`generate` (asserted by the
        tests) while projecting each position only once per layer.  The
        loop is :class:`~repro.models.greedy.GreedyDecode`'s, like every
        other decoder's.
        """
        from repro.models.cache import KVCache
        from repro.models.greedy import GreedyDecode, cached_forward
        from repro.tensor.workspace import Workspace

        decode = GreedyDecode(prompt_ids, max_new_tokens, self.config.max_positions)
        # Final sequence length is known up front → size every layer's cache
        # exactly once; one workspace backs the scratch of all layers/steps.
        cache = KVCache.empty(self.num_layers, capacity=decode.capacity)
        ids = decode.run(cached_forward(self, cache.layers, workspace=Workspace()))
        return np.asarray(ids, dtype=np.int64)

    def generate(self, prompt_ids: np.ndarray, max_new_tokens: int = 8) -> np.ndarray:
        """Greedy decoding (full re-forward per step; no KV cache).

        Each step is exactly the single-forward workload the paper measures,
        so distributed systems can serve generation by re-running Algorithm 2
        per emitted token.
        """
        ids = list(np.asarray(prompt_ids))
        for _ in range(max_new_tokens):
            if len(ids) >= self.config.max_positions:
                break
            ids.append(self.next_token(np.asarray(ids, dtype=np.int64)))
        return np.asarray(ids, dtype=np.int64)
