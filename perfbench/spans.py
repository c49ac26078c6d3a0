"""In-memory spans, and wrappers that record them around the program's calls.

Only the traced run installs the wrappers, and only for its duration: the
untraced run executes the program's functions unmodified.  A span carries
its name, start, end (``time.perf_counter`` seconds), parent span, request id
and thread name, plus whatever attributes its wrapper adds.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager


class SpanRecorder:
    """Collects spans from every thread; nothing is written until the end.

    Spans nest through a per-thread stack.  The thread that creates the
    recorder is the one that sends the requests.  A span opened on another
    thread (a rank of the threaded runtime) with nothing open on that thread
    is parented to the sending thread's innermost open span: that thread
    blocks inside the call that handed the ranks their work until they
    finish.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.request: int | None = None  # request being served, set by the sending thread
        self._ids = itertools.count()
        self._local = threading.local()
        self._sender = threading.get_ident()
        self._sender_top: int | None = None

    def clear(self) -> None:
        self.spans = []

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        on_sender = threading.get_ident() == self._sender
        parent = stack[-1] if stack else self._sender_top
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": parent,
            "request": self.request,
            "thread": threading.current_thread().name,
        }
        stack.append(record["id"])
        if on_sender:
            self._sender_top = record["id"]
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            if on_sender:
                self._sender_top = stack[-1] if stack else None
            self.spans.append(record)


def _wrap(recorder: SpanRecorder, fn: Callable, name: str, describe: Callable | None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name) as record:
            result = fn(*args, **kwargs)
        if describe is not None:
            record.update(describe(result, *args, **kwargs))
        return result

    return wrapper


def _wrap_all_gather(recorder: SpanRecorder, fn: Callable):
    """``WorkerContext.all_gather``, with the bytes this rank sent as counted
    by its ``CommStats``."""

    @functools.wraps(fn)
    def wrapper(ctx, *args, **kwargs):
        before = ctx.stats.bytes_sent
        with recorder.span("cluster.all_gather") as record:
            result = fn(ctx, *args, **kwargs)
        record["bytes"] = ctx.stats.bytes_sent - before
        record["rank"] = ctx.rank
        return result

    return wrapper


def _describe_partition(result, executor, x, partition, order=None, **_):
    n, p = x.shape[0], partition.length
    if p == 0:
        return {"n": n, "p": 0, "order": None, "flops": 0}
    order = order if order is not None else executor.select_order(n, p)
    return {
        "n": n,
        "p": p,
        "order": "eq8" if order.is_reordered else "eq3",
        "flops": executor.partition_flops(n, p, order),
    }


def _describe_logits(result, model, new_ids, offset, caches, workspace=None, all_positions=False):
    return {"positions": len(new_ids), "all_positions": bool(all_positions)}


@contextmanager
def traced(recorder: SpanRecorder) -> Iterator[None]:
    """Install the wrappers around each layer's public functions; restore the
    originals on exit."""
    import repro.models.cache as cache_module
    import repro.systems.decode as decode_module
    from repro.cluster.runtime import WorkerContext
    from repro.core.layer import PartitionedLayerExecutor
    from repro.engine.sequencer import DecodeSession
    from repro.engine.slots import KVSlot
    from repro.engine.speculative import NgramProposer
    from repro.models.gpt2 import GPT2Model
    from repro.systems.voltage import VoltageSystem

    targets = [
        (VoltageSystem, "execute_distributed", "systems.voltage.call", None),
        (PartitionedLayerExecutor, "forward_partition", "core.layer.partition",
         _describe_partition),
        (DecodeSession, "forward", "systems.decode.forward", None),
        # DecodeSession's ranks import this name when their loop starts, so
        # the wrapper must be in place before the first decode command
        (decode_module, "sharded_decode_step", "systems.decode.step", None),
        (GPT2Model, "logits_cached", "models.logits", _describe_logits),
        # logits_cached imports this name at call time
        (cache_module, "layer_forward_cached", "models.layer", None),
        (KVSlot, "copy_prefix_from", "slots.copy_prefix", None),
        (NgramProposer, "propose", "speculative.propose", None),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
    originals.append((WorkerContext, "all_gather", WorkerContext.all_gather))
    try:
        for owner, attr, name, describe in targets:
            setattr(owner, attr, _wrap(recorder, getattr(owner, attr), name, describe))
        WorkerContext.all_gather = _wrap_all_gather(recorder, WorkerContext.all_gather)
        yield
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
