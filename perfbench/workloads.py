"""The four workloads: their inputs, set-up, timed pass and reference check.

Every input is generated here from the run's seed and handed to the
program explicitly; model weights are fixed (seed 0) and are not inputs.
Each workload is driven through the public API of ``repro`` only.
"""

from __future__ import annotations

import gc
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from perfbench.spans import SpanRecorder
from perfbench.stats import digest, even_prefix_uniform, request_timing, stratified_uniform
from repro import engine
from repro.cluster.spec import ClusterSpec
from repro.models.bert import BertModel
from repro.models.config import bert_large_config, gpt2_config
from repro.models.gpt2 import GPT2Model
from repro.serving.arrivals import Request
from repro.systems.voltage import VoltageSystem

RANKS = 2  # K: ranks of the threaded runtime, one per core of the reference host

# voltage-encode: BERT-Large width, two layers, one closed-loop client.
ENCODE_LAYERS = 2
ENCODE_LENGTHS = (32, 384)  # log-uniform, so both sides of the N~64-128 order switch
ENCODE_POOL_PER_SECOND = 40  # generated requests per run second (~7x what the host serves)

# Engine workloads share one GPT-2-shaped model.
GPT_SHAPE = dict(
    hidden_size=256, num_heads=4, ffn_dim=1024, num_layers=4, vocab_size=8192,
    max_positions=256, name="gpt2-bench",
)
SLOTS = 4
# The open loops run at a sixth (serve-chat) and a ninth (serve-shared-prefix)
# of what one engine sustains on the reference host (7.2 and 22 req/s), so
# about a quarter of requests share the engine with another and the median
# request runs alone.  Nearer half, the median flips between running alone
# and sharing, so queueing multiplies the host's own slow spells: at a
# quarter, ten-seed spreads of latency and TTFT reached 0.3-0.5.
CHAT_RATE = 1.25
CHAT_PROMPT = (16, 96)
CHAT_NEW_TOKENS = 32
CHAT_SLO_S = (0.250, 0.025)  # (TTFT limit, TPOT limit)
SHARED_RATE = 2.5
SHARED_PROMPT = (128, 192)
SHARED_OPENING = 0.75  # share of each prompt that is its tenant's opening
SHARED_NEW_TOKENS = 8
SHARED_TENANTS = (("alpha", 0.4), ("beta", 0.3), ("gamma", 0.2), ("delta", 0.1))
SHARED_SLO_S = (0.100, 0.025)
LOOKAHEAD = 4
# voltage-decode: an offline batch sized to last about one run at 85-100 tok/s.
DECODE_REQUESTS_PER_SECOND = 2.6
DECODE_MIN_REQUESTS = 20  # p50 needs 10 samples beyond it
DECODE_NEW_TOKENS = 32

# warm-up inputs come from their own stream, never from the run's seed
WARMUP_SEED = 0x5EED


@dataclass
class Inputs:
    requests: list[Request]
    prompts: dict[int, np.ndarray]
    digest: str


@dataclass
class Served:
    """What one timed pass produced; times in seconds."""

    outputs: dict[int, np.ndarray]
    due: dict[int, float]
    finish: dict[int, float]
    step_ends: dict[int, list[float]]  # per request, when each step ended
    work_s: float  # summed time of the top-level calls the benchmark timed
    wall_s: float
    peak_rss_mb: float
    lag_s: float = 0.0
    report: object = None
    speculative: object = None
    idle_s: float = 0.0


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def gpt_model() -> GPT2Model:
    return GPT2Model(gpt2_config().scaled(**GPT_SHAPE), rng=np.random.default_rng(0))


def _ids(rng: np.random.Generator, n: int, vocab: int) -> np.ndarray:
    return rng.integers(0, vocab, size=n, dtype=np.int64)


def _uniform_lengths(u: np.ndarray, lo: int, hi: int) -> np.ndarray:
    return (lo + np.floor(u * (hi - lo + 1))).astype(int)


def _log_uniform_lengths(u: np.ndarray, lo: int, hi: int) -> np.ndarray:
    return np.floor(np.exp(np.log(lo) + u * (np.log(hi + 1) - np.log(lo)))).astype(int)


def _poisson_schedule(rng, rate: float, count: int) -> np.ndarray:
    """Arrival times with exponential gaps at ``rate``, the gap quantiles
    stratified so that every seed offers the same load."""
    gaps = -np.log1p(-stratified_uniform(rng, count)) / rate
    return np.cumsum(gaps)


def _inputs(requests: list[Request], prompts: dict[int, np.ndarray]) -> Inputs:
    parts = [(r.arrival, r.n, r.id, r.tenant) for r in requests]
    return Inputs(requests, prompts, digest(parts, *(prompts[r.id] for r in requests)))


class BenchClock(engine.WallClock):
    """The engine's wall clock, plus how late the loop first read it and how
    long the engine slept waiting for arrivals."""

    def __init__(self) -> None:
        super().__init__()
        self.first_read: float | None = None
        self.idle_s = 0.0

    def now(self) -> float:
        t = super().now()
        if self.first_read is None:
            self.first_read = t
        return t

    def wait_until(self, deadline: float) -> None:
        began = time.perf_counter()
        super().wait_until(deadline)
        self.idle_s += time.perf_counter() - began


class StepLog:
    """Stands in for a sequencer and timestamps each of its steps.

    The engine sees the wrapped sequencer through attribute forwarding; the
    log keeps, per request, the clock time at which each step ended.
    """

    def __init__(self, sequencer) -> None:
        self.sequencer = sequencer
        self.clock = None
        self.recorder: SpanRecorder | None = None
        self.step_ends: dict[int, list[float]] = {}
        self.busy_s = 0.0

    def __getattr__(self, name):
        return getattr(self.sequencer, name)

    def reset(self, clock, recorder: SpanRecorder | None) -> None:
        self.clock, self.recorder = clock, recorder
        self.step_ends = {}
        self.busy_s = 0.0

    def step(self, state):
        rid = state.request.id
        began = time.perf_counter()
        if self.recorder is None:
            result = self.sequencer.step(state)
        else:
            self.recorder.request = rid
            with self.recorder.span("engine.step"):
                result = self.sequencer.step(state)
        self.busy_s += time.perf_counter() - began
        self.step_ends.setdefault(rid, []).append(self.clock.now())
        return result


# -- voltage-encode -------------------------------------------------------------


class EncodeHarness:
    def __init__(self) -> None:
        model = BertModel(
            bert_large_config().scaled(num_layers=ENCODE_LAYERS),
            rng=np.random.default_rng(0),
        )
        self.system = VoltageSystem(model, ClusterSpec.homogeneous(RANKS))
        rng = np.random.default_rng(WARMUP_SEED)
        for n in (48, 256):  # one call per attention order
            self.system.execute_distributed(_ids(rng, n, model.config.vocab_size))

    def serve(self, inputs: Inputs, seconds: float | None, recorder=None) -> Served:
        """Closed loop, one client: the next call is due when the last returns.
        Runs for ``seconds`` (None: through every input)."""
        outputs, due, finish = {}, {}, {}
        began = time.perf_counter()
        stop = began + seconds if seconds is not None else float("inf")
        for request in inputs.requests:
            start = time.perf_counter()
            if start >= stop:
                break
            if recorder is not None:
                recorder.request = request.id
            output, _ = self.system.execute_distributed(inputs.prompts[request.id])
            end = time.perf_counter()
            outputs[request.id] = output
            due[request.id], finish[request.id] = start - began, end - began
        wall = time.perf_counter() - began
        return Served(
            outputs=outputs, due=due, finish=finish,
            step_ends={rid: [t] for rid, t in finish.items()},
            work_s=sum(finish[i] - due[i] for i in finish), wall_s=wall,
            peak_rss_mb=peak_rss_mb(),
        )

    def reference(self, prompt: np.ndarray) -> np.ndarray:
        return self.system.run(prompt).output

    def close(self) -> None:
        pass


def encode_inputs(seed: int, seconds: float) -> Inputs:
    vocab = bert_large_config().vocab_size
    count = int(np.ceil(ENCODE_POOL_PER_SECOND * seconds / 16)) * 16
    requests, prompts = [], {}
    # blocks of 16 lengths, each block and each block's leading 2, 4 or 8
    # stratified, so the mix does not hinge on where the loop's time runs out
    for block in range(count // 16):
        rng = np.random.default_rng([seed, block])
        for n in _log_uniform_lengths(even_prefix_uniform(rng, 16), *ENCODE_LENGTHS):
            rid = len(requests)
            requests.append(Request(arrival=0.0, n=int(n), id=rid))
            prompts[rid] = _ids(rng, int(n), vocab)
    return _inputs(requests, prompts)


# -- engine workloads -----------------------------------------------------------


class EngineHarness:
    """One engine over a GPT-2-shaped model, warmed up and ready to serve."""

    def __init__(self, sequencer, model: GPT2Model, config: engine.EngineConfig, new_tokens: int):
        self.model = model
        self.new_tokens = new_tokens
        self.log = StepLog(sequencer)
        self.engine = engine.InferenceEngine(self.log, config, clock=engine.WallClock())
        rng = np.random.default_rng(WARMUP_SEED)
        warm = [Request(arrival=0.0, n=40, id=i) for i in range(2)]
        self.log.reset(self.engine.clock, None)
        self.engine.run(warm, prompts={r.id: _ids(rng, r.n, model.config.vocab_size) for r in warm})

    def serve(self, inputs: Inputs, seconds: float | None, recorder=None) -> Served:
        """Serve every input; the schedule, not ``seconds``, sets the length."""
        sequencer = self.log.sequencer
        stats_before = (
            sequencer.stats.snapshot() if isinstance(sequencer, engine.SpeculativeSequencer) else None
        )
        # a fresh clock, made immediately before run: no arrival is due at start
        clock = self.engine.clock = BenchClock()
        self.log.reset(clock, recorder)
        began = time.perf_counter()
        if recorder is None:
            report = self.engine.run(inputs.requests, prompts=inputs.prompts)
        else:
            with recorder.span("engine.run"):
                report = self.engine.run(inputs.requests, prompts=inputs.prompts)
        wall = time.perf_counter() - began
        rss = peak_rss_mb()
        return Served(
            outputs={c.request.id: c.output for c in report.completed},
            due={c.request.id: c.request.arrival for c in report.completed},
            finish={c.request.id: c.finish for c in report.completed},
            step_ends=self.log.step_ends,
            work_s=self.log.busy_s,
            wall_s=wall,
            peak_rss_mb=rss,
            lag_s=clock.first_read or 0.0,
            report=report,
            speculative=(
                sequencer.stats.delta(stats_before) if stats_before is not None else None
            ),
            idle_s=clock.idle_s,
        )

    def reference(self, prompt: np.ndarray) -> np.ndarray:
        return self.model.generate_cached(prompt, max_new_tokens=self.new_tokens)

    def close(self) -> None:
        close = getattr(self.log.sequencer, "close", None)
        if close is not None:
            close()


def _unique_prompt_inputs(
    seed: int, count: int, arrivals: np.ndarray, lengths: tuple[int, int]
) -> Inputs:
    rng = np.random.default_rng([seed, 1])
    lens = _uniform_lengths(stratified_uniform(rng, count), *lengths)
    vocab = GPT_SHAPE["vocab_size"]
    requests = [
        Request(arrival=float(t), n=int(n), id=i) for i, (t, n) in enumerate(zip(arrivals, lens))
    ]
    return _inputs(requests, {r.id: _ids(rng, r.n, vocab) for r in requests})


def chat_inputs(seed: int, seconds: float) -> Inputs:
    count = max(1, round(CHAT_RATE * seconds))
    arrivals = _poisson_schedule(np.random.default_rng([seed, 0]), CHAT_RATE, count)
    return _unique_prompt_inputs(seed, count, arrivals, CHAT_PROMPT)


def shared_prefix_inputs(seed: int, seconds: float) -> Inputs:
    """Four tenants in fixed shares; each prompt opens with the first ~3/4 of
    its tenant's opening, the rest is unique to the request."""
    count = max(1, round(SHARED_RATE * seconds))
    arrivals = _poisson_schedule(np.random.default_rng([seed, 0]), SHARED_RATE, count)
    rng = np.random.default_rng([seed, 1])
    vocab = GPT_SHAPE["vocab_size"]
    openings = {
        name: _ids(rng, int(SHARED_PROMPT[1] * SHARED_OPENING), vocab)
        for name, _ in SHARED_TENANTS
    }
    shares = np.cumsum([share for _, share in SHARED_TENANTS])
    picks = np.searchsorted(shares, stratified_uniform(rng, count), side="right")
    lens = _uniform_lengths(stratified_uniform(rng, count), *SHARED_PROMPT)
    requests, prompts = [], {}
    for i, (t, n, pick) in enumerate(zip(arrivals, lens, picks)):
        tenant = SHARED_TENANTS[min(int(pick), len(SHARED_TENANTS) - 1)][0]
        opening = int(n * SHARED_OPENING)
        requests.append(Request(arrival=float(t), n=int(n), id=i, tenant=tenant))
        prompts[i] = np.concatenate([openings[tenant][:opening], _ids(rng, int(n) - opening, vocab)])
    return _inputs(requests, prompts)


def decode_inputs(seed: int, seconds: float) -> Inputs:
    count = max(DECODE_MIN_REQUESTS, round(DECODE_REQUESTS_PER_SECOND * seconds))
    return _unique_prompt_inputs(seed, count, np.zeros(count), CHAT_PROMPT)


def chat_harness() -> EngineHarness:
    model = gpt_model()
    sequencer = engine.GPT2CachedSequencer(model, max_new_tokens=CHAT_NEW_TOKENS)
    config = engine.EngineConfig(num_slots=SLOTS, policy="fifo", prefix_cache=True)
    return EngineHarness(sequencer, model, config, CHAT_NEW_TOKENS)


def shared_prefix_harness() -> EngineHarness:
    model = gpt_model()
    sequencer = engine.SpeculativeSequencer(
        model, proposer=engine.NgramProposer(), lookahead=LOOKAHEAD,
        max_new_tokens=SHARED_NEW_TOKENS,
    )
    config = engine.EngineConfig(num_slots=SLOTS, policy="fifo", prefix_cache=True)
    return EngineHarness(sequencer, model, config, SHARED_NEW_TOKENS)


def decode_harness() -> EngineHarness:
    model = gpt_model()
    system = VoltageSystem(model, ClusterSpec.homogeneous(RANKS))
    sequencer = engine.VoltageDecodeSequencer(
        system, max_new_tokens=DECODE_NEW_TOKENS, attention="gathered"
    )
    config = engine.EngineConfig(num_slots=SLOTS, policy="fifo")
    return EngineHarness(sequencer, model, config, DECODE_NEW_TOKENS)


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int, float], Inputs]  # (seed, seconds) -> Inputs
    harness: Callable[[], object]  # a harness with serve, reference and close
    closed_loop: bool = False
    slo_s: tuple[float, float] | None = None  # open loops: (TTFT limit, TPOT limit)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("voltage-encode", encode_inputs, EncodeHarness, closed_loop=True),
        Workload("serve-chat", chat_inputs, chat_harness, slo_s=CHAT_SLO_S),
        Workload(
            "serve-shared-prefix", shared_prefix_inputs, shared_prefix_harness,
            slo_s=SHARED_SLO_S,
        ),
        Workload("voltage-decode", decode_inputs, decode_harness),
    )
}


def build(workload: Workload):
    """Set the workload up once: model, system/engine, warm-up."""
    gc.collect()
    return workload.harness()


def timings(served: Served, inputs: Inputs, encode: bool) -> list[tuple[int, float, float, float | None]]:
    """Per completed request: (id, latency, ttft, tpot), in seconds."""
    rows = []
    for rid in served.outputs:
        latency = served.finish[rid] - served.due[rid]
        if encode:
            # one forward is the encoder's only output: its first token and its
            # last arrive together, and every position is an output position
            rows.append((rid, latency, latency, latency / len(inputs.prompts[rid])))
            continue
        out_tokens = len(served.outputs[rid]) - len(inputs.prompts[rid])
        ttft, tpot = request_timing(
            served.due[rid], served.step_ends[rid], served.finish[rid], out_tokens
        )
        rows.append((rid, latency, ttft, tpot))
    return rows


def wrong_outputs(passes: list[Served], inputs: Inputs, harness) -> set[int]:
    """Ids whose output differs from the reference in any pass.  References
    are computed once per request, outside every timed pass."""
    wrong = set()
    for rid in set().union(*(served.outputs for served in passes)):
        reference = harness.reference(inputs.prompts[rid])
        if any(
            rid in served.outputs and not np.array_equal(served.outputs[rid], reference)
            for served in passes
        ):
            wrong.add(rid)
    return wrong
