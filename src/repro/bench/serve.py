"""Online-serving bench (``repro.bench serve``): throughput–latency sweep.

Runs the real engine — actual GPT-2 KV-cached decodes through the
continuous-batching worker loop — under a monotone sweep of offered load,
and emits ``BENCH_serve.json`` (schema ``repro-bench-serve/v2``) with
p50/p99 latency, throughput, shed rate and slot occupancy per point, plus
a 2× overload comparison of shedding vs no shedding.

Since v2 the report also carries a **speculative-decoding comparison**: the
``shared-prefix`` fleet trace replayed at saturating load through four
engine configurations — baseline greedy decode, speculative with the
n-gram self-drafting proposer, speculative with a truncated draft model,
and speculative combined with the cross-request radix prefix cache.  All
four must produce byte-identical outputs (greedy exact-match acceptance is
lossless); what changes is virtual-time tokens/s.  ``--check`` gates that
the speedups stay above 1.0, the output digests match the committed
baseline exactly, and acceptance / prefix-hit rates hold within
``RATE_TOLERANCE``.

Determinism: time is *virtual* (:class:`~repro.engine.clock.VirtualClock`)
and every token step is charged a fixed analytic cost, so the sweep's
numbers depend only on the seed and the knobs — not on host speed.  That
is what lets ``--check`` gate tightly against the committed baseline: a
scheduling change that moves tail latency shows up as a diff on any
machine, with zero noise.

The documented overload bound (EXPERIMENTS "Online serving"): with
deadline shedding and an exact service estimate, an admitted request is
dispatched no later than ``deadline - service``, and with ``S`` slots its
service stretches at most ``S``-fold under step interleaving, so admitted
latency is bounded by ``slo + S × service``.  The no-shedding
configuration has no such bound — its queue grows without limit at 2×
load — and the report records both sides.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.engine import (
    DraftModelProposer,
    EngineConfig,
    GPT2CachedSequencer,
    InferenceEngine,
    NgramProposer,
    SpeculativeSequencer,
    VirtualClock,
)
from repro.engine.clock import request_cost, step_cost
from repro.serving.arrivals import Request, poisson_arrivals

__all__ = [
    "SCHEMA",
    "step_cost",
    "request_cost",
    "run_serve_sweep",
    "run_speculative_comparison",
    "emit_report",
    "check_regression",
]

SCHEMA = "repro-bench-serve/v2"

#: Tolerances for --check: virtual-time results are deterministic, so these
#: only absorb float wobble and intentional small retunes, not host speed.
LATENCY_FACTOR = 1.25
SHED_RATE_TOLERANCE = 0.05
THROUGHPUT_FACTOR = 1.25
RATE_TOLERANCE = 0.1  # acceptance / prefix-hit rate drift vs baseline

def _serve_model(quick: bool):
    from repro.models import GPT2Model
    from repro.models.config import gpt2_config

    config = gpt2_config().scaled(
        num_layers=2 if quick else 4,
        hidden_size=64,
        num_heads=4,
        ffn_dim=128,
        vocab_size=512,
        max_positions=64,
        name="gpt2-serve",
    )
    return GPT2Model(config, rng=np.random.default_rng(0))


def _point(report, offered_rps: float, ratio: float) -> dict:
    stats = report.stats() if report.completed else None
    return {
        "offered_rps": offered_rps,
        "offered_ratio": ratio,
        "requests": report.total_requests,
        "completed": len(report.completed),
        "shed": len(report.shed),
        "shed_rate": report.shed_rate,
        "throughput_rps": stats.throughput_rps if stats else 0.0,
        "p50_latency_s": stats.p50_latency if stats else None,
        "p99_latency_s": stats.p99_latency if stats else None,
        "mean_slot_occupancy": report.mean_slot_occupancy,
        "deadline_misses": stats.deadline_misses if stats else 0,
        "preemptions": report.preemptions_total,
    }


def run_serve_sweep(quick: bool = False, seed: int = 0) -> dict:
    """Run the offered-load sweep plus the overload demo; returns one mode's
    report payload (deterministic for a given ``quick``/``seed``)."""
    model = _serve_model(quick)
    max_positions = model.config.max_positions
    max_new = 8
    prompt_tokens = (4, 12)
    num_requests = 48 if quick else 120
    num_slots = 4
    mean_prompt = sum(prompt_tokens) / 2
    service_s = request_cost(int(mean_prompt), max_new, max_positions)
    worst_service_s = request_cost(prompt_tokens[1], max_new, max_positions)
    capacity_rps = 1.0 / service_s
    slo_s = 8 * service_s

    def engine_for(shedding: bool) -> InferenceEngine:
        sequencer = GPT2CachedSequencer(
            model, max_new_tokens=max_new, step_cost=step_cost, prompt_seed=seed
        )
        config = EngineConfig(
            num_slots=num_slots,
            max_queue=3 * num_slots if shedding else None,
            shed_on_deadline=shedding,
            service_estimate=(
                (lambda r: request_cost(r.n, max_new, max_positions)) if shedding else None
            ),
        )
        return InferenceEngine(sequencer, config, clock=VirtualClock())

    def stream(ratio: float, count: int) -> list[Request]:
        rate = ratio * capacity_rps
        return [
            r.with_slo(slo_s)
            for r in poisson_arrivals(count, rate=rate, n_tokens=prompt_tokens, seed=seed)
        ]

    sweep = []
    for ratio in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0):
        report = engine_for(shedding=True).run(stream(ratio, num_requests))
        sweep.append(_point(report, ratio * capacity_rps, ratio))

    # 2× overload, shedding on vs off: the acceptance comparison.  The
    # stream is long enough that an unshed queue visibly diverges.
    bound_s = slo_s + num_slots * worst_service_s
    overload_stream = stream(2.0, 3 * num_requests)
    shed_report = engine_for(shedding=True).run(overload_stream)
    open_report = engine_for(shedding=False).run(overload_stream)
    shed_p99 = shed_report.stats().p99_latency
    open_p99 = open_report.stats().p99_latency
    overload = {
        "factor": 2.0,
        "latency_bound_s": bound_s,
        "with_shedding": {
            "p99_latency_s": shed_p99,
            "shed_rate": shed_report.shed_rate,
            "completed": len(shed_report.completed),
        },
        "without_shedding": {
            "p99_latency_s": open_p99,
            "shed_rate": open_report.shed_rate,
            "completed": len(open_report.completed),
        },
        "bound_held_with_shedding": shed_p99 <= bound_s,
        "bound_exceeded_without_shedding": open_p99 > bound_s,
    }

    return {
        "workload": {
            "model": model.config.name,
            "num_layers": model.config.num_layers,
            "prompt_tokens": list(prompt_tokens),
            "max_new_tokens": max_new,
            "num_requests": num_requests,
            "num_slots": num_slots,
            "slo_seconds": slo_s,
            "mean_service_seconds": service_s,
            "capacity_rps": capacity_rps,
            "seed": seed,
        },
        "sweep": sweep,
        "overload": overload,
        "speculative": run_speculative_comparison(quick=quick, seed=seed),
    }


# -- speculative decoding + prefix cache comparison ----------------------------


def _output_digest(completed) -> str:
    """Order-independent fingerprint of every served token sequence."""
    digest = hashlib.sha256()
    for record in sorted(completed, key=lambda c: c.request.id):
        digest.update(int(record.request.id).to_bytes(8, "little", signed=True))
        digest.update(np.ascontiguousarray(record.output, dtype=np.int64).tobytes())
    return digest.hexdigest()[:16]


def run_speculative_comparison(quick: bool = False, seed: int = 0) -> dict:
    """Replay the ``shared-prefix`` trace at saturating load through four
    engine configurations and measure virtual-time tokens/s.

    Configurations (all serve byte-identical tokens — the gate asserts it):

    - ``baseline`` — plain KV-cached greedy decode;
    - ``speculative-ngram`` — self-drafting n-gram proposer;
    - ``speculative-draft`` — one-layer truncated draft model proposer;
    - ``speculative-prefix-cache`` — n-gram proposer plus the cross-request
      radix prefix cache (retained prompt KV seeds same-tenant prefills).

    The trace is rescaled to offer ~9× one engine's capacity, so the
    makespan is service-bound and tokens/s measures decode efficiency
    rather than arrival gaps.
    """
    from repro.fleet.traces import build_trace

    model = _serve_model(quick)
    max_positions = model.config.max_positions
    max_new = 8
    num_slots = 4
    lookahead = 4
    shared_prefix = 12  # tenant system-prompt length, < min prompt - 2
    trace = build_trace("shared-prefix", seed=seed, quick=quick)
    mean_prompt = sum(r.n for r in trace.requests) / len(trace.requests)
    service_s = request_cost(int(mean_prompt), max_new, max_positions)
    # trace rate is 0.9 req/unit; one unit -> 0.1 service times ~= 9x capacity
    trace = trace.rescaled(0.1 * service_s)
    requests = list(trace.requests)

    def sequencer_kwargs():
        return dict(
            max_new_tokens=max_new,
            step_cost=step_cost,
            prompt_seed=seed,
            shared_prefix_tokens=shared_prefix,
        )

    configs = [
        ("baseline", lambda: GPT2CachedSequencer(model, **sequencer_kwargs()), False),
        (
            "speculative-ngram",
            lambda: SpeculativeSequencer(
                model, proposer=NgramProposer(), lookahead=lookahead, **sequencer_kwargs()
            ),
            False,
        ),
        (
            "speculative-draft",
            lambda: SpeculativeSequencer(
                model,
                proposer=DraftModelProposer(model.truncated_draft(1)),
                lookahead=lookahead,
                **sequencer_kwargs(),
            ),
            False,
        ),
        (
            "speculative-prefix-cache",
            lambda: SpeculativeSequencer(
                model, proposer=NgramProposer(), lookahead=lookahead, **sequencer_kwargs()
            ),
            True,
        ),
    ]

    results: dict[str, dict] = {}
    for name, make_sequencer, prefix_cache in configs:
        sequencer = make_sequencer()
        engine = InferenceEngine(
            sequencer,
            # no shedding: every config must serve the *identical* request
            # set or the output digests are not comparable
            EngineConfig(
                num_slots=num_slots, shed_on_deadline=False, prefix_cache=prefix_cache
            ),
            clock=VirtualClock(),
        )
        report = engine.run(requests)
        stats = report.stats()
        generated = sum(
            len(record.output) - min(record.request.n, model.config.max_positions)
            for record in report.completed
        )
        entry = {
            "completed": len(report.completed),
            "generated_tokens": generated,
            "makespan_s": report.makespan,
            "tokens_per_s": generated / report.makespan if report.makespan > 0 else 0.0,
            "p50_latency_s": stats.p50_latency,
            "p99_latency_s": stats.p99_latency,
            "steps_total": report.steps_total,
            "output_digest": _output_digest(report.completed),
        }
        spec_stats = getattr(sequencer, "stats", None)
        if spec_stats is not None:
            entry["speculative"] = spec_stats.as_dict()
        if report.prefix_cache is not None:
            entry["prefix_cache"] = report.prefix_cache
        results[name] = entry

    base_tps = results["baseline"]["tokens_per_s"]
    digests = {entry["output_digest"] for entry in results.values()}
    return {
        "workload": {
            "trace": trace.label,
            "trace_digest": trace.digest(),
            "num_requests": len(requests),
            "shared_prefix_tokens": shared_prefix,
            "lookahead": lookahead,
            "num_slots": num_slots,
            "max_new_tokens": max_new,
            "time_scale": trace.time_scale,
            "seed": seed,
        },
        "configs": results,
        "identical_outputs": len(digests) == 1,
        "speedups": {
            name: entry["tokens_per_s"] / base_tps if base_tps > 0 else 0.0
            for name, entry in results.items()
            if name != "baseline"
        },
    }


# -- report emission + regression gate ----------------------------------------


def emit_report(payload: dict, mode: str, path: Path) -> dict:
    """Write/merge one mode's payload into the report file at ``path``."""
    doc = {"schema": SCHEMA, "modes": {}}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except json.JSONDecodeError:
            existing = None
        if isinstance(existing, dict) and existing.get("schema") == SCHEMA:
            doc = existing
            doc.setdefault("modes", {})
    doc["modes"][mode] = payload
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return doc


def _compare_point(now: dict, base: dict, label: str) -> list[str]:
    errors = []
    for key in ("p50_latency_s", "p99_latency_s"):
        a, b = now.get(key), base.get(key)
        if (a is None) != (b is None):
            errors.append(f"{label}: {key} presence changed ({a} vs baseline {b})")
        elif a is not None and b is not None and b > 0 and not (
            b / LATENCY_FACTOR <= a <= b * LATENCY_FACTOR
        ):
            errors.append(
                f"{label}: {key} {a:.4f}s drifted >{LATENCY_FACTOR:g}x "
                f"from baseline {b:.4f}s"
            )
    if abs(now["shed_rate"] - base["shed_rate"]) > SHED_RATE_TOLERANCE:
        errors.append(
            f"{label}: shed rate {now['shed_rate']:.3f} vs baseline "
            f"{base['shed_rate']:.3f} (tolerance {SHED_RATE_TOLERANCE})"
        )
    a, b = now["throughput_rps"], base["throughput_rps"]
    if b > 0 and not (b / THROUGHPUT_FACTOR <= a <= b * THROUGHPUT_FACTOR):
        errors.append(
            f"{label}: throughput {a:.3f} rps drifted >{THROUGHPUT_FACTOR:g}x "
            f"from baseline {b:.3f} rps"
        )
    return errors


def check_regression(payload: dict, mode: str, baseline_path: Path) -> list[str]:
    """Gate this run against the committed baseline; [] means pass."""
    if not baseline_path.exists():
        return [f"baseline {baseline_path} does not exist"]
    try:
        doc = json.loads(baseline_path.read_text())
    except json.JSONDecodeError as exc:
        return [f"baseline {baseline_path} is not valid JSON: {exc}"]
    if doc.get("schema") != SCHEMA:
        return [f"baseline schema {doc.get('schema')!r} != {SCHEMA!r}"]
    base = doc.get("modes", {}).get(mode)
    if base is None:
        return [f"baseline {baseline_path} has no {mode!r} mode entry"]

    errors = []
    now_sweep, base_sweep = payload["sweep"], base["sweep"]
    if len(now_sweep) != len(base_sweep):
        errors.append(
            f"sweep has {len(now_sweep)} points, baseline {len(base_sweep)}"
        )
    for now_point, base_point in zip(now_sweep, base_sweep):
        errors.extend(
            _compare_point(
                now_point, base_point, f"load {now_point['offered_ratio']:g}x"
            )
        )
    overload = payload["overload"]
    if not overload["bound_held_with_shedding"]:
        errors.append(
            f"overload: shedding no longer holds p99 "
            f"{overload['with_shedding']['p99_latency_s']:.3f}s within the "
            f"{overload['latency_bound_s']:.3f}s bound"
        )
    if not overload["bound_exceeded_without_shedding"]:
        errors.append(
            "overload: the no-shedding configuration unexpectedly met the bound "
            "(the comparison no longer demonstrates anything)"
        )
    errors.extend(_check_speculative(payload.get("speculative"), base.get("speculative")))
    return errors


def _check_speculative(now: dict | None, base: dict | None) -> list[str]:
    """v2 gates: lossless speculation, real speedups, pinned digests/rates."""
    if now is None:
        return ["payload has no 'speculative' section"]
    if base is None:
        return ["baseline has no 'speculative' section"]
    errors = []
    if not now["identical_outputs"]:
        errors.append(
            "speculative: output digests diverge across configs — speculation "
            "or the prefix cache is no longer lossless"
        )
    for name, speedup in now["speedups"].items():
        if not speedup > 1.0:
            errors.append(
                f"speculative: {name} speedup {speedup:.3f}x is not > 1.0x baseline"
            )
    for name, entry in now["configs"].items():
        base_entry = base["configs"].get(name)
        if base_entry is None:
            errors.append(f"speculative: baseline has no {name!r} config entry")
            continue
        if entry["output_digest"] != base_entry["output_digest"]:
            errors.append(
                f"speculative: {name} output digest {entry['output_digest']} != "
                f"baseline {base_entry['output_digest']} (tokens changed)"
            )
        pairs = []
        if "speculative" in entry and "speculative" in base_entry:
            pairs.append((
                "acceptance_rate",
                entry["speculative"]["acceptance_rate"],
                base_entry["speculative"]["acceptance_rate"],
            ))
        if "prefix_cache" in entry and "prefix_cache" in base_entry:
            pairs.append((
                "prefix hit_rate",
                entry["prefix_cache"]["hit_rate"],
                base_entry["prefix_cache"]["hit_rate"],
            ))
        for label, a, b in pairs:
            if abs(a - b) > RATE_TOLERANCE:
                errors.append(
                    f"speculative: {name} {label} {a:.3f} vs baseline {b:.3f} "
                    f"(tolerance {RATE_TOLERANCE})"
                )
    return errors
