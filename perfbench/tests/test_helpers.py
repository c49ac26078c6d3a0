"""Tests of the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import json
import threading
from pathlib import Path

import numpy as np
import pytest

from perfbench import run
from perfbench.spans import SpanRecorder
from perfbench.stats import (
    digest,
    even_prefix_uniform,
    percentile,
    request_timing,
    self_times,
    slo_attainment,
    stratified_uniform,
)

ROOT = Path(__file__).resolve().parents[2]


class TestPercentileRule:
    @pytest.mark.parametrize("q, enough", [(50, 20), (90, 100), (99, 1000)])
    def test_needs_ten_samples_beyond(self, q, enough):
        assert percentile(list(range(enough - 1)), q) is None
        assert percentile(list(range(enough)), q) is not None

    def test_value_is_the_sample_percentile(self):
        assert percentile([float(i) for i in range(101)], 90) == pytest.approx(90.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1.0] * 100, 100)


class TestRequestTiming:
    def test_single_token_steps(self):
        # prefill ends at 0.10 s with the first token; then one token per step
        ends = [0.10 + 0.01 * i for i in range(32)]
        ttft, tpot = request_timing(due=0.02, step_ends=ends, finish=ends[-1], output_tokens=32)
        assert ttft == pytest.approx(0.08)
        assert tpot == pytest.approx(0.01)

    def test_multi_token_steps(self):
        # speculative rounds commit several tokens each: 8 tokens in 3 steps
        ends = [0.10, 0.17, 0.24]
        ttft, tpot = request_timing(due=0.0, step_ends=ends, finish=0.24, output_tokens=8)
        assert ttft == pytest.approx(0.10)
        assert tpot == pytest.approx(0.14 / 7)

    def test_single_output_token_has_no_tpot(self):
        assert request_timing(0.0, [0.05], 0.05, 1) == (0.05, None)

    def test_needs_a_step(self):
        with pytest.raises(ValueError):
            request_timing(0.0, [], 1.0, 4)


class TestSelfTime:
    @staticmethod
    def span(sid, parent, start, end):
        return {"id": sid, "parent": parent, "start": start, "end": end}

    def test_children_are_subtracted_once_where_they_overlap(self):
        spans = [
            self.span(0, None, 0.0, 10.0),
            self.span(1, 0, 1.0, 3.0),  # two ranks working at once
            self.span(2, 0, 2.0, 5.0),
            self.span(3, 1, 1.5, 2.5),  # a grandchild counts only against its parent
        ]
        selfs = self_times(spans)
        assert selfs[0] == pytest.approx(6.0)
        assert selfs[1] == pytest.approx(1.0)
        assert selfs[2] == pytest.approx(3.0)
        assert selfs[3] == pytest.approx(1.0)

    def test_child_outside_the_parent_is_clipped(self):
        spans = [self.span(0, None, 0.0, 2.0), self.span(1, 0, 1.5, 4.0)]
        assert self_times(spans)[0] == pytest.approx(1.5)

    def test_recorder_parents_rank_threads_to_the_sending_span(self):
        recorder = SpanRecorder()

        def rank():
            with recorder.span("rank work"):
                with recorder.span("inner"):
                    pass

        with recorder.span("call"):
            worker = threading.Thread(target=rank)
            worker.start()
            worker.join(timeout=10)
        assert not worker.is_alive()
        by_name = {s["name"]: s for s in recorder.spans}
        assert by_name["call"]["parent"] is None
        assert by_name["rank work"]["parent"] == by_name["call"]["id"]
        assert by_name["inner"]["parent"] == by_name["rank work"]["id"]


class TestSloAttainment:
    def test_shed_and_failed_requests_are_misses(self):
        # 10 sent: 2 shed and 1 wrong never reach the timings; of 7 served, 5 meet both
        timings = [(0.05, 0.01)] * 5 + [(0.30, 0.01), (0.05, 0.04)]
        assert slo_attainment(10, timings, 0.25, 0.025) == pytest.approx(0.5)

    def test_single_token_request_meets_tpot(self):
        assert slo_attainment(1, [(0.05, None)], 0.25, 0.025) == 1.0

    def test_needs_a_request(self):
        with pytest.raises(ValueError):
            slo_attainment(0, [], 0.25, 0.025)


class TestInputs:
    def test_stratified_draws_cover_every_stratum(self):
        u = stratified_uniform(np.random.default_rng(3), 16)
        assert sorted(np.floor(u * 16).astype(int)) == list(range(16))

    @pytest.mark.parametrize("seed", range(4))
    def test_every_power_of_two_prefix_is_stratified(self, seed):
        u = even_prefix_uniform(np.random.default_rng(seed), 16)
        for k in (1, 2, 4, 8, 16):
            assert sorted(np.floor(u[:k] * k).astype(int)) == list(range(k))

    def test_even_prefix_needs_a_power_of_two(self):
        with pytest.raises(ValueError):
            even_prefix_uniform(np.random.default_rng(0), 12)

    def test_digest_is_deterministic_and_content_sensitive(self):
        a = np.arange(5, dtype=np.int64)
        assert digest([(0.5, 5, 0)], a) == digest([(0.5, 5, 0)], a.copy())
        assert digest([(0.5, 5, 0)], a) != digest([(0.5, 5, 0)], a + 1)


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
