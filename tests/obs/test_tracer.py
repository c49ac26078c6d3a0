"""Unit tests for the tracer: span nesting, modeled tracks, installation."""

import threading

import pytest

from repro.obs.tracer import (
    NULL_TRACER,
    Tracer,
    current_tracer,
    set_tracer,
    use_tracer,
)


class TestWallSpans:
    def test_span_records_duration_and_fields(self):
        tracer = Tracer()
        with tracer.span("op", cat="runtime", kind="comm", track="t", device=2, nbytes=10):
            pass
        [span] = tracer.spans
        assert span.name == "op"
        assert span.cat == "runtime"
        assert span.kind == "comm"
        assert span.domain == "wall"
        assert span.track == "t"
        assert span.device == 2
        assert span.nbytes == 10
        assert span.duration_s >= 0

    def test_nesting_records_parent_and_containment(self):
        tracer = Tracer()
        with tracer.span("parent", track="t"):
            with tracer.span("child", track="t"):
                pass
            with tracer.span("sibling", track="t"):
                pass
        child, sibling, parent = tracer.spans  # children close (append) first
        assert parent.name == "parent" and parent.parent_id is None
        assert child.parent_id == parent.id
        assert sibling.parent_id == parent.id
        assert tracer.children_of(parent) == [child, sibling]
        # time containment: children start no earlier, end no later
        for inner in (child, sibling):
            assert inner.start_s >= parent.start_s
            assert inner.end_s <= parent.end_s + 1e-9

    def test_nesting_is_per_thread(self):
        tracer = Tracer()
        seen = []

        def other():
            with tracer.span("other-thread"):
                pass
            seen.append(True)

        with tracer.span("main"):
            t = threading.Thread(target=other)
            t.start()
            t.join()
        other_span = tracer.filter(name="other-thread")[0]
        assert other_span.parent_id is None  # not nested under main's span
        assert seen == [True]

    def test_open_span_set_attaches_annotations(self):
        tracer = Tracer()
        with tracer.span("op") as span:
            span.set(nbytes=123, layer=4, custom="x")
        [recorded] = tracer.spans
        assert recorded.nbytes == 123
        assert recorded.layer == 4
        assert recorded.args["custom"] == "x"

    def test_invalid_kind_rejected(self):
        tracer = Tracer()
        with pytest.raises(ValueError, match="kind"):
            with tracer.span("op", kind="nonsense"):
                pass


class TestModeledSpans:
    def test_track_cursor_lays_spans_end_to_end(self):
        tracer = Tracer()
        a = tracer.record_modeled("a", cat="phase", kind="compute", seconds=1.5)
        b = tracer.record_modeled("b", cat="phase", kind="comm", seconds=0.5)
        assert a.start_s == 0.0 and a.duration_s == 1.5
        assert b.start_s == 1.5 and b.duration_s == 0.5
        assert tracer.modeled_seconds("request") == 2.0

    def test_tracks_are_independent(self):
        tracer = Tracer()
        tracer.record_modeled("a", cat="phase", kind="compute", seconds=1.0, track="x")
        tracer.record_modeled("b", cat="phase", kind="compute", seconds=2.0, track="y")
        assert tracer.modeled_seconds("x") == 1.0
        assert tracer.modeled_seconds("y") == 2.0

    def test_record_at_explicit_start(self):
        tracer = Tracer()
        span = tracer.record_at(
            "req", cat="serving", kind="service", start_s=3.0, duration_s=1.0, track="s"
        )
        assert span.start_s == 3.0
        assert tracer.modeled_seconds("s") == 4.0

    def test_negative_duration_rejected(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            tracer.record_modeled("a", cat="phase", kind="compute", seconds=-1.0)


class TestInstallation:
    def test_default_is_null_tracer(self):
        assert current_tracer() is NULL_TRACER
        assert not current_tracer().enabled

    def test_use_tracer_installs_and_restores(self):
        tracer = Tracer()
        with use_tracer(tracer) as installed:
            assert installed is tracer
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER

    def test_empty_tracer_is_truthy(self):
        # len()==0 must not make a fresh tracer falsy (CLI installs it
        # conditionally; a falsy empty tracer would silently disable tracing)
        assert bool(Tracer())

    def test_set_tracer_explicit(self):
        tracer = Tracer()
        set_tracer(tracer)
        try:
            assert current_tracer() is tracer
        finally:
            set_tracer(None)
        assert current_tracer() is NULL_TRACER

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("x") as span:
            span.set(nbytes=1)
        NULL_TRACER.record_modeled("x", cat="a", kind="comm", seconds=1.0)
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.filter() == []

    def test_disabled_span_is_one_shared_context_object(self):
        # no generator per call: every disabled span is the same inert object
        first = NULL_TRACER.span("a", cat="runtime", kind="comm", track="rank 0")
        second = NULL_TRACER.span("b")
        assert first is second
        with first as span:
            assert span is first
            span.set(nbytes=3)
        with pytest.raises(ValueError):
            with second:
                raise ValueError("exceptions propagate")  # __exit__ swallows nothing
        with first, second:  # reusable and re-entrant
            pass

    def test_threads_spawned_inside_block_see_tracer(self):
        tracer = Tracer()
        observed = []
        with use_tracer(tracer):
            t = threading.Thread(target=lambda: observed.append(current_tracer()))
            t.start()
            t.join()
        assert observed == [tracer]
