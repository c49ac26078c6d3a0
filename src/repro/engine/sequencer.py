"""Sequencers: the model-execution half of the engine, one step at a time.

A sequencer owns *how* a request computes; the engine owns *when*.  The
contract is a tiny state machine:

- ``begin(request, prompt, slot)`` binds a request to a KV slot and returns
  an opaque per-request state (no model compute happens here);
- ``step(state)`` runs exactly one token-step of model compute and returns
  ``(done, virtual_cost)`` — ``virtual_cost`` is the simulated seconds to
  charge a :class:`~repro.engine.clock.VirtualClock` (None means "charge
  measured wall time", the right default under a wall clock);
- ``result(state)`` is the finished request's output.

Three implementations:

- :class:`GPT2CachedSequencer` — greedy KV-cached decoding, *bit-identical*
  to :meth:`repro.models.gpt2.GPT2Model.generate_cached` for the same
  prompt: each engine step is one step of the
  :class:`~repro.models.greedy.GreedyDecode` state machine that
  ``generate_cached`` runs to completion, over the same forward against
  the slot's caches instead of a private one.  Buffer capacity is the only
  difference, and capacity never changes values.  This is what
  makes the engine's soak guarantee provable: interleaving, preemption and
  restart permute *which* step runs next, never what a step computes.
- :class:`VoltageForwardSequencer` — the paper's serving workload: one
  distributed forward pass per request on real threaded workers
  (:meth:`VoltageSystem.execute_threaded`), done in a single step.  The
  slot carries no KV state (``num_layers == 0``); the pool purely bounds
  how many distributed forwards may be in flight.
- :class:`VoltageDecodeSequencer` — the same greedy state machine as
  :class:`GPT2CachedSequencer`, its forwards run by resident ranks over a
  position-sharded KV cache (:class:`DecodeSession`).

A preempted request is simply re-``begin``-ed later: greedy decoding is
deterministic, so recomputing from the prompt reproduces the discarded
steps exactly — correctness is preserved by construction, at the price of
redone work (counted by the engine as ``preemptions``).
"""

from __future__ import annotations

import queue
import threading
import zlib
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.engine.slots import KVSlot
from repro.models.greedy import GreedyDecode, cached_forward
from repro.obs.metrics import get_registry
from repro.serving.arrivals import Request

__all__ = ["DecodeSession", "GPT2CachedSequencer", "VoltageDecodeSequencer", "VoltageForwardSequencer"]

#: Namespaces the per-tenant shared-prefix RNG stream apart from the
#: per-request suffix stream (which is seeded ``[prompt_seed, request.id]``).
_TENANT_PREFIX_NS = 0x5E9F


def _clipped_prompt_len(
    request: Request, max_positions: int, truncated: dict[int, tuple[int, int]]
) -> int:
    """Clip ``request.n`` to the model's position budget — and *record* it:
    a request asking for more context than the model has is a serving
    misconfiguration worth surfacing, not something to silently absorb.
    ``truncated`` maps request id -> (requested, used); recording is
    idempotent so preemption re-``begin``s don't double-count."""
    n = min(request.n, max_positions)
    if n < request.n and request.id not in truncated:
        truncated[request.id] = (request.n, n)
        get_registry().counter("engine.prompt_truncated_total").inc()
    return n


def _synthetic_prompt(
    request: Request,
    max_positions: int,
    vocab_size: int,
    prompt_seed: int,
    truncated: dict[int, tuple[int, int]],
    shared_prefix_tokens: int = 0,
    min_suffix: int = 2,
) -> np.ndarray:
    """The deterministic synthetic prompt every sequencer derives from
    ``(prompt_seed, request.id)`` — optionally with a tenant-keyed shared
    prefix, so requests from the same tenant open with the same
    ``shared_prefix_tokens`` ids (seeded by ``(prompt_seed, tenant)``, so
    it does not depend on which replica builds it).  At least ``min_suffix``
    tokens stay request-unique, matching the prefix cache's match cap."""
    n = _clipped_prompt_len(request, max_positions, truncated)
    rng = np.random.default_rng([prompt_seed, request.id])
    suffix = rng.integers(0, vocab_size, size=n, dtype=np.int64)
    if shared_prefix_tokens <= 0 or request.tenant is None:
        return suffix
    prefix_len = min(shared_prefix_tokens, max(n - min_suffix, 0))
    if prefix_len == 0:
        return suffix
    prefix_rng = np.random.default_rng(
        [prompt_seed, _TENANT_PREFIX_NS, zlib.crc32(request.tenant.encode())]
    )
    prefix = prefix_rng.integers(0, vocab_size, size=prefix_len, dtype=np.int64)
    return np.concatenate([prefix, suffix[prefix_len:]])


class _DecodeState(GreedyDecode):
    """One in-flight greedy decode bound to a slot and to the backend that
    runs its forwards."""

    def __init__(
        self, request: Request, slot: KVSlot, forward, prompt, max_new_tokens: int,
        max_positions: int, cached_prefix: int = 0,
    ):
        super().__init__(prompt, max_new_tokens, max_positions, cached_prefix)
        self.request = request
        self.slot = slot
        self.forward = forward


class _GreedySequencer:
    """What the greedy decode sequencers share: synthetic prompts, the
    offline reference, and the step — one :meth:`GreedyDecode.step` of the
    request's state over its backend, priced by the shape of the forward
    it ran.  Subclasses supply ``begin`` (which binds the backend)."""

    #: The engine's prefix cache may hand a sequencer pre-seeded prompt rows
    #: (``begin(..., cached_prefix=k)``) only when it opts in.
    supports_prefix_cache = False
    #: Tenant-tagged prompts open with this many tenant-keyed common ids.
    shared_prefix_tokens = 0
    #: A cached-prefix match leaves at least this many prompt positions to
    #: re-prefill, keeping the suffix forward a multi-row batched GEMM —
    #: batch rows are bit-stable across batch shapes, single GEMV rows are
    #: not (INTERNALS §16), and bit-identity to ``generate_cached`` rides
    #: on exactly that.  Synthetic prompts keep this many ids request-unique.
    min_prefill_suffix = 2

    def __init__(
        self,
        model,
        max_new_tokens: int = 8,
        step_cost: Callable[[int, int], float] | None = None,
        prompt_seed: int = 0,
    ):
        if max_new_tokens < 0:
            raise ValueError(f"max_new_tokens must be >= 0, got {max_new_tokens}")
        self.model = model
        self.max_new_tokens = max_new_tokens
        self.step_cost = step_cost
        self.prompt_seed = prompt_seed
        #: request id -> (requested n, clipped n) for prompts that exceeded
        #: the model's position budget (also counted on
        #: ``engine.prompt_truncated_total``).
        self.truncated_prompts: dict[int, tuple[int, int]] = {}

    @property
    def slot_capacity(self) -> int:
        return self.model.config.max_positions

    # -- prompts ---------------------------------------------------------------

    def prompt_for(self, request: Request) -> np.ndarray:
        """Deterministic synthetic prompt: ``request.n`` tokens seeded by
        ``(prompt_seed, request.id)`` — the soak tests and the serve bench
        replay the same prompts offline to check bit-identity.  Tenant-tagged
        requests share a ``shared_prefix_tokens``-long opening keyed by the
        tenant; prompts clipped to ``max_positions`` are recorded in
        :attr:`truncated_prompts`."""
        return _synthetic_prompt(
            request,
            self.model.config.max_positions,
            self.model.config.vocab_size,
            self.prompt_seed,
            self.truncated_prompts,
            shared_prefix_tokens=self.shared_prefix_tokens,
            min_suffix=self.min_prefill_suffix,
        )

    def offline_reference(self, request: Request, prompt: np.ndarray | None = None) -> np.ndarray:
        """The ground-truth output: a fresh offline ``generate_cached`` run."""
        prompt = prompt if prompt is not None else self.prompt_for(request)
        return self.model.generate_cached(prompt, max_new_tokens=self.max_new_tokens)

    # -- the state machine -----------------------------------------------------

    def step(self, state: _DecodeState) -> tuple[bool, float | None]:
        if state.done:
            raise ValueError(f"request {state.request.id} already finished")
        shape = state.step(state.forward)
        if state.done:
            self._release(state)
        return state.done, self._cost(shape)

    def _release(self, state: _DecodeState) -> None:
        """Drop backend-side state once a decode finishes."""

    def _cost(self, shape: tuple[int, int] | None) -> float | None:
        """Virtual cost of a forward of ``(new_positions, cache_len)``; a
        commit-only step (``shape`` None) is free."""
        if self.step_cost is None:
            return None
        return 0.0 if shape is None else self.step_cost(*shape)

    def result(self, state: _DecodeState) -> np.ndarray:
        if not state.done:
            raise ValueError(f"request {state.request.id} is still decoding")
        return np.asarray(state.ids, dtype=np.int64)


class GPT2CachedSequencer(_GreedySequencer):
    """Token-step greedy decoding over slot-owned KV caches."""

    supports_prefix_cache = True

    def __init__(
        self,
        model,
        max_new_tokens: int = 8,
        step_cost: Callable[[int, int], float] | None = None,
        prompt_seed: int = 0,
        shared_prefix_tokens: int = 0,
    ):
        """``step_cost(new_positions, cache_len_before)`` supplies the
        deterministic virtual-time cost of one forward; leave None to charge
        measured wall time (wall-clock serving).  ``prompt_seed`` namespaces
        the synthetic prompts :meth:`prompt_for` derives from request ids;
        ``shared_prefix_tokens > 0`` opens every tenant-tagged request's
        prompt with that many tenant-keyed common tokens (the prefix-cache
        workload shape).
        """
        super().__init__(model, max_new_tokens, step_cost, prompt_seed)
        if shared_prefix_tokens < 0:
            raise ValueError(
                f"shared_prefix_tokens must be >= 0, got {shared_prefix_tokens}"
            )
        self.shared_prefix_tokens = shared_prefix_tokens

    @property
    def num_layers(self) -> int:
        return self.model.num_layers

    def begin(
        self,
        request: Request,
        prompt: np.ndarray,
        slot: KVSlot,
        cached_prefix: int = 0,
    ) -> _DecodeState:
        """Bind a request to its slot.  ``cached_prefix > 0`` declares that
        the slot already holds byte-exact K/V rows for the first
        ``cached_prefix`` prompt tokens (seeded by the engine from the
        prefix cache); prefill then covers only the remaining suffix."""
        if slot.length != cached_prefix:
            raise ValueError(
                f"slot {slot.index} was handed over dirty "
                f"(length {slot.length}, expected {cached_prefix} cached-prefix rows)"
            )
        # every forward is model.logits_cached against the slot's caches —
        # generate_cached's backend with a different (never value-changing)
        # buffer capacity
        forward = cached_forward(self.model, slot.caches, slot.workspace)
        state = _DecodeState(
            request, slot, forward, prompt, self.max_new_tokens,
            self.model.config.max_positions, cached_prefix,
        )
        if cached_prefix < 0 or (
            cached_prefix > 0 and cached_prefix > state.prompt_len - self.min_prefill_suffix
        ):
            raise ValueError(
                f"cached_prefix {cached_prefix} must leave >= {self.min_prefill_suffix} "
                f"prompt positions of a {state.prompt_len}-token prompt to prefill"
            )
        return state

    def cache_key(self, state: _DecodeState) -> tuple[int, ...] | None:
        """The token ids whose slot rows are safe to retain for the prefix
        cache: *prompt* rows only — prefill rows come from multi-row GEMMs
        (bit-stable across requests), decode rows from single-row GEMVs (not)
        — and only when at least ``min_prefill_suffix`` of them exist."""
        length = min(state.slot.length, state.prompt_len)
        if length < self.min_prefill_suffix:
            return None
        return tuple(state.ids[:length])


@dataclass
class _ForwardState:
    """One pending single-forward (classification-style) request."""

    request: Request
    slot: KVSlot
    ids: np.ndarray
    output: np.ndarray | None = None
    done: bool = False
    comm_stats: list = field(default_factory=list)


class VoltageForwardSequencer:
    """One distributed forward per request via the threaded Voltage runtime."""

    num_layers = 0  # slots carry no KV state; the pool only bounds concurrency

    def __init__(
        self,
        system,
        service_time: Callable[[int], float] | None = None,
        prompt_seed: int = 0,
    ):
        """``system`` is a :class:`~repro.systems.voltage.VoltageSystem`;
        ``service_time(n)`` supplies the virtual-time cost of one request
        (e.g. the analytic Voltage latency), None charges measured wall."""
        self.system = system
        self.service_time = service_time
        self.prompt_seed = prompt_seed
        self.truncated_prompts: dict[int, tuple[int, int]] = {}

    @property
    def slot_capacity(self) -> int:
        return self.system.model.config.max_positions

    def prompt_for(self, request: Request) -> np.ndarray:
        return _synthetic_prompt(
            request,
            self.system.model.config.max_positions,
            self.system.model.config.vocab_size,
            self.prompt_seed,
            self.truncated_prompts,
        )

    def offline_reference(self, request: Request, prompt: np.ndarray | None = None) -> np.ndarray:
        prompt = prompt if prompt is not None else self.prompt_for(request)
        output, _ = self.system.execute_threaded(prompt)
        return output

    def begin(self, request: Request, prompt: np.ndarray, slot: KVSlot) -> _ForwardState:
        return _ForwardState(request=request, slot=slot, ids=np.asarray(prompt))

    def step(self, state: _ForwardState) -> tuple[bool, float | None]:
        if state.done:
            raise ValueError(f"request {state.request.id} already finished")
        state.output, state.comm_stats = self.system.execute_threaded(state.ids)
        state.done = True
        cost = self.service_time(state.ids.shape[0]) if self.service_time else None
        return True, cost

    def result(self, state: _ForwardState) -> np.ndarray:
        if not state.done:
            raise ValueError(f"request {state.request.id} has not run")
        return state.output


class DecodeSession:
    """A resident K-rank decode service driven by per-step commands.

    The engine interleaves token steps of many requests, so a one-shot
    SPMD launch per request would pay runtime startup per token.  Instead
    the session keeps all ``K`` ranks alive inside one long-lived
    ``runtime.run`` call (on a background thread) and feeds them commands
    over per-rank queues:

    - ``("begin", slot, capacity)`` — allocate this rank's KV shards for
      the slot, spans fixed over ``capacity`` (re-beginning a slot simply
      replaces its shards, which is how preemption restarts work);
    - ``("forward", slot, new_ids, offset)`` — run one position-sharded
      decode step (``systems.decode.sharded_decode_step``) and reply with
      the next token id;
    - ``("release", slot)`` / ``("shutdown",)`` — drop state / exit.

    Every rank executes every command, so collectives inside a forward
    line up; the host asserts all ranks replied the same token — a
    per-step distributed consistency check.  Queues are created before
    the runtime starts, which makes them usable under ``ProcessRuntime``:
    it forks, so pre-existing ``multiprocessing.Queue`` ends survive into
    the children.
    """

    def __init__(self, system, runtime=None, timeout: float = 60.0, attention: str = "gathered"):
        from repro.cluster.process_runtime import ProcessRuntime, resolve_runtime
        from repro.core.complexity import decode_mode_cost

        decode_mode_cost(attention)  # rejects unknown modes
        self.system = system
        self.k = system.k
        self.timeout = timeout
        self.attention = attention
        # A resident session returns worker results only at shutdown, so the
        # process runtime's no-progress watchdog needs the session-lifetime
        # timeout, not the per-recv default.
        self._runtime = resolve_runtime(runtime, self.k, timeout=timeout)
        if isinstance(self._runtime, ProcessRuntime):
            import multiprocessing as mp

            self._commands = [mp.Queue() for _ in range(self.k)]
            self._replies = [mp.Queue() for _ in range(self.k)]
        else:
            self._commands = [queue.Queue() for _ in range(self.k)]
            self._replies = [queue.Queue() for _ in range(self.k)]
        self._thread: threading.Thread | None = None
        self._error: BaseException | None = None
        self._closed = False

    # -- lifecycle -------------------------------------------------------------

    def _serve(self) -> None:
        from repro.systems.decode import decode_layer_spans, rank_forward

        system = self.system
        attention = self.attention
        commands, replies = self._commands, self._replies

        def worker(ctx):
            forwards: dict[int, Callable] = {}  # slot -> this rank's backend

            while True:
                command = commands[ctx.rank].get()
                op = command[0]
                try:
                    if op == "begin":
                        _, slot, capacity = command
                        forwards[slot] = rank_forward(
                            ctx, system, decode_layer_spans(system, capacity), attention
                        )
                        reply = ("ok", None)
                    elif op == "forward":
                        _, slot, new_ids, offset = command
                        reply = ("ok", forwards[slot](new_ids, offset))
                    elif op == "release":
                        forwards.pop(command[1], None)
                        reply = ("ok", None)
                    elif op == "shutdown":
                        replies[ctx.rank].put(("ok", None))
                        return None
                    else:
                        raise ValueError(f"unknown session command {op!r}")
                except Exception as exc:  # reply first so the host fails loudly
                    replies[ctx.rank].put(("error", f"{type(exc).__name__}: {exc}"))
                    raise
                replies[ctx.rank].put(reply)

        try:
            self._runtime.run(worker)
        except BaseException as exc:
            self._error = exc

    def _ensure_started(self) -> None:
        if self._closed:
            raise RuntimeError("decode session is closed")
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._serve, name="decode-session", daemon=True
            )
            self._thread.start()

    def _command(self, payload: tuple):
        """Send one command to every rank and collect every reply."""
        self._ensure_started()
        for rank in range(self.k):
            self._commands[rank].put(payload)
        values = []
        for rank in range(self.k):
            try:
                status, value = self._replies[rank].get(timeout=self.timeout)
            except queue.Empty:
                detail = f": {self._error!r}" if self._error else ""
                raise RuntimeError(
                    f"decode session rank {rank} did not reply to {payload[0]!r} "
                    f"within {self.timeout}s{detail}"
                ) from self._error
            if status != "ok":
                raise RuntimeError(f"decode session rank {rank} failed: {value}")
            values.append(value)
        return values

    # -- the command surface ---------------------------------------------------

    def begin(self, slot: int, capacity: int) -> None:
        self._command(("begin", slot, capacity))

    def forward(self, slot: int, new_ids: list[int], offset: int) -> int:
        values = self._command(("forward", slot, [int(t) for t in new_ids], int(offset)))
        first = values[0]
        for rank, value in enumerate(values):
            if value != first:
                raise AssertionError(
                    f"rank {rank} decoded token {value} where rank 0 decoded {first}"
                )
        return first

    def release(self, slot: int) -> None:
        self._command(("release", slot))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._thread is not None:
            for rank in range(self.k):
                self._commands[rank].put(("shutdown",))
            self._thread.join(timeout=self.timeout)

    def __enter__(self) -> "DecodeSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class VoltageDecodeSequencer(_GreedySequencer):
    """Distributed greedy decoding with a position-sharded KV cache.

    The engine-facing contract matches :class:`GPT2CachedSequencer` (same
    state machine, same prompts, same offline reference), but every
    forward runs on ``K`` resident ranks through a :class:`DecodeSession`:
    each rank holds only its span of each layer's K/V and reassembles the
    full cache with lossless all-gathers, so the emitted tokens are
    bit-identical to single-device ``generate_cached`` — interleaving and
    preemption permute which step runs next, never what a step computes.

    Slots carry no host-side KV state (``num_layers == 0``): the shard
    caches live rank-side, keyed by slot index, and a re-``begin`` on a
    slot replaces them (preemption restart).  Use as a context manager or
    call :meth:`close` to shut the session down.
    """

    num_layers = 0  # KV shards live rank-side in the session, not in engine slots

    def __init__(
        self,
        system,
        max_new_tokens: int = 8,
        step_cost: Callable[[int, int], float] | None = None,
        prompt_seed: int = 0,
        runtime=None,
        session_timeout: float = 60.0,
        attention: str = "gathered",
    ):
        """``attention`` selects the decode mode the resident ranks run:
        ``"gathered"`` (lossless per-step K/V all-gather, bit-identical to
        ``generate_cached``) or ``"distributed"`` (local-shard attention
        with the log-sum-exp combine — exact up to float tolerance, per-step
        wire volume flat in the sequence length)."""
        super().__init__(system.model, max_new_tokens, step_cost, prompt_seed)
        self.system = system
        self.runtime = runtime
        self.session_timeout = session_timeout
        self.attention = attention
        self._session: DecodeSession | None = None

    def session(self) -> DecodeSession:
        """The resident rank pool, started on first use."""
        if self._session is None:
            self._session = DecodeSession(
                self.system, runtime=self.runtime, timeout=self.session_timeout,
                attention=self.attention,
            )
        return self._session

    def close(self) -> None:
        if self._session is not None:
            self._session.close()
            self._session = None

    def __enter__(self) -> "VoltageDecodeSequencer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def begin(self, request: Request, prompt: np.ndarray, slot: KVSlot) -> _DecodeState:
        index = slot.index

        def forward(new_ids, offset):
            return self.session().forward(index, new_ids, offset)

        state = _DecodeState(
            request, slot, forward, prompt, self.max_new_tokens, self.model.config.max_positions
        )
        self.session().begin(index, state.capacity)
        return state

    def _release(self, state: _DecodeState) -> None:
        self.session().release(state.slot.index)
