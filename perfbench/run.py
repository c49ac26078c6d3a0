"""Wall-clock benchmark of the Voltage stack.

Run from the repository root:

    python3 perfbench/run.py --workload voltage-encode --seed 1 --seconds 18 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the workload
untraced and then traced and prints the per-layer metrics; ``--workload all``
runs every workload in turn.  Each run checks every output against the
program's own reference and exits non-zero on a mismatch.  The last line of
standard output is one JSON object; a full record, with the host fingerprint
(and the spans, when traced), is written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
SETUP_REPEATS = 3

#: name -> unit of every end-to-end metric (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "ttft_p50_ms": "ms",
    "tpot_p50_ms": "ms",
    "busy_tokens_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: name -> unit of every per-layer metric (``--trace 1``); layers a workload
#: does not exercise read 0.
PER_LAYER = {
    "systems.voltage.call_ms": "ms",
    "systems.voltage.launch_ms": "ms",
    "core.layer.partition_ms.eq3": "ms",
    "core.layer.partition_ms.eq8": "ms",
    "core.layer.achieved_gflops": "GFLOP/s",
    "cluster.all_gather_ms": "ms",
    "cluster.all_gather_bytes": "B",
    "cluster.rank_skew_ms": "ms",
    "systems.decode.forward_ms": "ms",
    "systems.decode.step_ms": "ms",
    "models.prefill_ms": "ms",
    "models.decode_step_ms": "ms",
    "models.layer_ms": "ms",
    "models.head_share": "ratio",
    "engine.queue_wait_ms": "ms",
    "engine.step_ms": "ms",
    "engine.loop_share": "ratio",
    "engine.mean_inflight": "requests",
    "engine.steps": "count",
    "engine.shed": "count",
    "engine.preemptions": "count",
    "prefix_cache.hit_rate": "ratio",
    "prefix_cache.token_share": "ratio",
    "prefix_cache.evictions": "count",
    "slots.copy_prefix_ms": "ms",
    "speculative.acceptance_rate": "ratio",
    "speculative.tokens_per_forward": "tokens",
    "speculative.propose_ms": "ms",
    "speculative.verify_ms": "ms",
    "obs.trace_overhead_share": "ratio",
    "bench.schedule_lag_ms": "ms",
}


def import_seconds() -> float:
    """Median time a fresh interpreter takes to import the program and the
    benchmark's workloads."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    times = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import perfbench.workloads"], cwd=ROOT, env=env, check=True
        )
        times.append(time.perf_counter() - began)
    return statistics.median(times)


def host_fingerprint() -> dict:
    """What produced the numbers.  The BLAS thread setting is recorded from
    the environment, never changed; unset means the library's default."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = {
        var: os.environ.get(var, "unset")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def end_to_end(workload, served, inputs, rows, setup_s, sent, wrong) -> tuple[dict, dict, int]:
    """The gated metrics; the report, every other metric that applies to
    the workload as ``name -> (value, unit)``, where a percentile without
    10 samples beyond it reads None; and the number of failed requests.
    Timings cover every completed request; a wrong output counts as failed
    and as an SLO miss."""
    from perfbench.stats import percentile, slo_attainment

    samples = {
        "latency": [r[1] for r in rows],
        "ttft": [r[2] for r in rows],
        "tpot": [r[3] for r in rows if r[3] is not None],
    }
    tokens = sum(
        len(inputs.prompts[rid]) if workload.closed_loop
        else len(served.outputs[rid]) - len(inputs.prompts[rid])
        for rid, *_ in rows
    )
    if workload.closed_loop:
        span = served.wall_s
    else:
        span = max(served.finish[r[0]] for r in rows) - min(served.due[r[0]] for r in rows)
    metrics = {"setup_s": setup_s}
    report = {}
    for name, values in samples.items():
        for q in (50, 90):
            value = percentile(values, q)
            report[f"{name}_p{q}_ms"] = (value * 1000 if value is not None else None, "ms")
        if report[f"{name}_p50_ms"][0] is None:
            raise SystemExit(
                f"{workload.name}: {len(values)} {name} samples cannot support a median "
                "(it needs 20); the run measured too little"
            )
        metrics[f"{name}_p50_ms"] = report[f"{name}_p50_ms"][0]
    # tokens per second the program spent serving: the capacity the run shows,
    # which an open loop's offered load does not mask
    metrics["busy_tokens_per_s"] = tokens / served.work_s
    metrics["peak_rss_mb"] = served.peak_rss_mb
    kind = "input" if workload.closed_loop else "output"
    report[f"{kind}_tokens_per_s"] = (tokens / span, "1/s")
    failed = sent - len([rid for rid in served.outputs if rid not in wrong])
    report["failed_share"] = (failed / sent, "ratio")
    if workload.slo_s is not None:
        ttft_limit, tpot_limit = workload.slo_s
        report["slo_attainment"] = (
            slo_attainment(
                sent, [(r[2], r[3]) for r in rows if r[0] not in wrong], ttft_limit, tpot_limit
            ),
            f"ratio(ttft<={ttft_limit * 1000:g}ms,tpot<={tpot_limit * 1000:g}ms)",
        )
    report["bench.schedule_lag_ms"] = (served.lag_s * 1000, "ms")
    return metrics, report, failed


def layer_metrics(spans: list[dict], selfs: dict[int, float], plain, traced, inputs) -> dict:
    """Per-layer metrics of the traced pass (``plain`` is the untraced pass,
    ``selfs`` the spans' self times)."""
    from perfbench.stats import mean

    by_name: dict[str, list[dict]] = {}
    children: dict[int, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
        children.setdefault(span["parent"], []).append(span)

    def dur(span: dict) -> float:
        return span["end"] - span["start"]

    def mean_ms(name: str, keep=lambda s: True) -> float:
        return mean([dur(s) for s in by_name.get(name, ()) if keep(s)]) * 1000

    launch, skew = [], []
    for call in by_name.get("systems.voltage.call", ()):
        per_rank: dict[str, list[dict]] = {}
        for child in children.get(call["id"], ()):
            per_rank.setdefault(child["thread"], []).append(child)
        if not per_rank:
            continue
        launch.append(dur(call) - max(sum(dur(s) for s in v) for v in per_rank.values()))
        layers = [
            sorted((s for s in v if s["name"] == "core.layer.partition"), key=lambda s: s["start"])
            for v in per_rank.values()
        ]
        for per_layer in zip(*layers):
            times = [dur(s) for s in per_layer]
            skew.append(max(times) - min(times))

    partitions = [s for s in by_name.get("core.layer.partition", ()) if s["p"]]
    part_time = sum(dur(s) for s in partitions)
    gathers = by_name.get("cluster.all_gather", ())
    logits = by_name.get("models.logits", ())
    logits_time = sum(dur(s) for s in logits)
    report = traced.report
    spec = traced.speculative
    prompt_tokens = sum(len(p) for p in inputs.prompts.values())

    values = {
        "systems.voltage.call_ms": mean_ms("systems.voltage.call"),
        "systems.voltage.launch_ms": mean(launch) * 1000,
        "core.layer.partition_ms.eq3": mean_ms("core.layer.partition", lambda s: s["order"] == "eq3"),
        "core.layer.partition_ms.eq8": mean_ms("core.layer.partition", lambda s: s["order"] == "eq8"),
        "core.layer.achieved_gflops": (
            sum(s["flops"] for s in partitions) / part_time / 1e9 if part_time else 0.0
        ),
        "cluster.all_gather_ms": mean_ms("cluster.all_gather"),
        "cluster.all_gather_bytes": mean([s["bytes"] for s in gathers]),
        "cluster.rank_skew_ms": mean(skew) * 1000,
        "systems.decode.forward_ms": mean_ms("systems.decode.forward"),
        "systems.decode.step_ms": mean_ms("systems.decode.step"),
        "models.prefill_ms": mean_ms(
            "models.logits", lambda s: s["positions"] > 1 and not s["all_positions"]
        ),
        "models.decode_step_ms": mean_ms("models.logits", lambda s: s["positions"] == 1),
        "models.layer_ms": mean_ms("models.layer"),
        "models.head_share": (
            sum(selfs[s["id"]] for s in logits) / logits_time if logits_time else 0.0
        ),
        "engine.queue_wait_ms": 0.0,
        "engine.step_ms": mean_ms("engine.step"),
        "engine.loop_share": 0.0,
        "engine.mean_inflight": 0.0,
        "engine.steps": 0,
        "engine.shed": 0,
        "engine.preemptions": 0,
        "prefix_cache.hit_rate": 0.0,
        "prefix_cache.token_share": 0.0,
        "prefix_cache.evictions": 0,
        "slots.copy_prefix_ms": mean_ms("slots.copy_prefix"),
        "speculative.acceptance_rate": spec.acceptance_rate if spec else 0.0,
        "speculative.tokens_per_forward": spec.tokens_per_forward if spec else 0.0,
        "speculative.propose_ms": mean_ms("speculative.propose"),
        "speculative.verify_ms": mean_ms("models.logits", lambda s: s["all_positions"]),
        "obs.trace_overhead_share": traced.work_s / plain.work_s - 1,
        "bench.schedule_lag_ms": traced.lag_s * 1000,
    }
    if report is not None:
        values.update({
            "engine.queue_wait_ms": mean(
                [c.start - c.request.arrival for c in report.completed]
            ) * 1000,
            "engine.loop_share": (traced.wall_s - traced.work_s - traced.idle_s) / traced.wall_s,
            "engine.mean_inflight": (
                report.slot_seconds / report.makespan if report.makespan else 0.0
            ),
            "engine.steps": report.steps_total,
            "engine.shed": len(report.shed),
            "engine.preemptions": report.preemptions_total,
        })
        if report.prefix_cache is not None:
            values.update({
                "prefix_cache.hit_rate": report.prefix_cache["hit_rate"],
                "prefix_cache.token_share": report.prefix_cache["positions_saved"] / prompt_tokens,
                "prefix_cache.evictions": report.prefix_cache["evictions"],
            })
    return values


def attribution(
    spans: list[dict], selfs: dict[int, float], wall_s: float
) -> list[tuple[str, int, float, float, float]]:
    """Per span name: calls, total ms, self ms, self share of the pass's wall."""
    table: dict[str, list[float]] = {}
    for span in spans:
        row = table.setdefault(span["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span["end"] - span["start"]
        row[2] += selfs[span["id"]]
    return sorted(
        ((name, int(c), t * 1000, s * 1000, s / wall_s) for name, (c, t, s) in table.items()),
        key=lambda row: -row[3],
    )


def run_all(args) -> int:
    """Run every workload, each in a fresh interpreter, and sum up: the last
    line carries every workload's metrics as ``<workload>.<metric>``."""
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"perfbench: {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        total["correct"] &= result["correct"] and proc.returncode == 0
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update(
            {f"{name}.{metric}": entry for metric, entry in result["metrics"].items()}
        )
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import workloads
    from perfbench.spans import SpanRecorder, traced

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed, args.seconds)
    host = host_fingerprint()
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    print(f"inputs digest={inputs.digest} requests={len(inputs.requests)}")

    import_s = import_seconds()
    setups, harness = [], None
    try:
        for _ in range(SETUP_REPEATS if not args.trace else 1):
            if harness is not None:
                harness.close()
                harness = None
            began = time.perf_counter()
            harness = workloads.build(workload)
            setups.append(time.perf_counter() - began)
        setup_s = import_s + statistics.median(setups)

        plain = harness.serve(inputs, args.seconds if workload.closed_loop else None)
        passes = [plain]
        spans: list[dict] = []
        if args.trace:
            sent_ids = set(plain.outputs)
            replay = workloads.Inputs(
                [r for r in inputs.requests if r.id in sent_ids] if workload.closed_loop
                else inputs.requests,
                inputs.prompts, inputs.digest,
            )
            harness.close()
            recorder = SpanRecorder()
            with traced(recorder):
                harness = workloads.build(workload)
                recorder.clear()  # set-up and warm-up are not part of the pass
                passes.append(harness.serve(replay, None, recorder))
            spans = recorder.spans
        # references, outside every timed pass, from the last harness built
        wrong = workloads.wrong_outputs(passes, inputs, harness)
    finally:
        if harness is not None:
            harness.close()  # resident decode ranks would keep the process alive

    sent = len(plain.due) if workload.closed_loop else len(inputs.requests)
    rows = workloads.timings(plain, inputs, workload.closed_loop)
    metrics, report, failed = end_to_end(workload, plain, inputs, rows, setup_s, sent, wrong)

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "inputs_digest": inputs.digest,
        "requests_sent": sent, "wrong_outputs": sorted(wrong),
        "setup_repeats_s": setups, "import_s": import_s,
        "end_to_end": metrics, "report": report,
    }
    for name, (value, unit) in report.items():
        if value is None:
            print(f"{name} n/a: fewer than 10 of {len(rows)} samples lie beyond it")
        else:
            print(f"{name} {value:.6g} {unit}")
    if args.trace:
        from perfbench.stats import self_times

        selfs = self_times(spans)
        values = layer_metrics(spans, selfs, plain, passes[1], inputs)
        shown = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
        table = attribution(spans, selfs, passes[1].wall_s)
        print(f"{'span':28s} {'calls':>7s} {'total ms':>11s} {'self ms':>11s} {'self/wall':>9s}")
        for name, calls, total, own, share in table:
            print(f"{name:28s} {calls:7d} {total:11.2f} {own:11.2f} {share:9.3f}")
        record.update({"per_layer": values, "attribution": table, "spans": spans})
    else:
        shown = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}
    for name, entry in shown.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")

    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, default=str))
    correct = not wrong
    print(json.dumps({
        "correct": correct, "attempted": sent, "failed": failed, "metrics": shown,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
