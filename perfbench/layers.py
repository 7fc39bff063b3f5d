"""Spans at the layer boundaries of the partitioner, recorded from outside.

The benchmark does not touch the program's own tracer.  Instead
:func:`install` replaces a fixed list of public functions and methods
(one or more per layer, named after the module that owns them) with
wrappers that record a span per call: layer, name, request id, parent
span, start and end.  Spans stay in memory and are written out when the
run ends.

Pool workers of :class:`repro.service.PartitionService` are forked from
the benchmark process, so they inherit the wrappers.  Each worker keeps
its own spans and appends them to ``worker-<pid>.jsonl`` in the output
directory after every shard; :meth:`Recorder.collect_workers` reads
those files back.

The same wrappers carry the sensitivity check: a fixed delay per layer
(``--inject-delay``), slept inside the wrapper of that layer only.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Layers a delay may be injected into (``--inject-delay LAYER=SECONDS``).
DELAY_LAYERS = ("ilp.highs", "solve.disk_cache")

#: Prefixes of the winning backend labels a window outcome can carry.
ANSWERED = ("highs", "bnb", "cache", "incumbent", "primal", "heuristic")


@dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    name: str
    request: str | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    def to_dict(self, pid: int) -> dict:
        return {
            "id": f"{pid}:{self.id}",
            "parent": None if self.parent is None else f"{pid}:{self.parent}",
            "layer": self.layer,
            "name": self.name,
            "request": self.request,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


class Recorder:
    """In-memory span store with a per-thread stack of open spans.

    With ``tracing=False`` the wrappers record nothing and only apply
    the injected delays.
    """

    def __init__(
        self,
        tracing: bool,
        out_dir: Path,
        delays: dict[str, float] | None = None,
    ) -> None:
        self.tracing = tracing
        self.out_dir = out_dir
        self.delays = dict(delays or {})
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pid = os.getpid()
        os.register_at_fork(after_in_child=self._after_fork)

    # -- span bookkeeping ----------------------------------------------------

    def _after_fork(self) -> None:
        # A forked worker starts with a copy of the parent's spans and
        # stacks; it must only ship what it records itself.
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pid = os.getpid()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def top(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def bind(self, parent: Span | None, request: str | None) -> None:
        """Seed this thread's context: a parent from another thread, or a
        request id for the spans this thread opens next."""
        self._local.stack = [] if parent is None else [parent]
        self._local.request = request

    def request(self) -> str | None:
        top = self.top()
        if top is not None:
            return top.request
        return getattr(self._local, "request", None)

    def open(self, layer: str, name: str) -> Span:
        parent = self.top()
        span = Span(
            id=next(self._ids),
            parent=None if parent is None else parent.id,
            layer=layer,
            name=name,
            request=self.request(),
            start=time.perf_counter(),
        )
        self._stack().append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    # -- wrapping ------------------------------------------------------------

    def wrap(
        self, layer: str, name: str, fn, on_result=None, flat=False,
        delayable=False,
    ):
        """A wrapper recording one ``layer``/``name`` span per call.

        ``flat`` skips calls nested in a span of the same layer (a
        tiered cache lookup calling its memory tier, a wire decoder
        calling another).  ``on_result(span, args, kwargs, result)``
        stores what the call returned as span attributes.  Only a
        ``delayable`` boundary sleeps the delay injected for its layer.
        """
        recorder = self
        delay = self.delays.get(layer, 0.0) if delayable else 0.0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.tracing:
                if delay:
                    time.sleep(delay)
                return fn(*args, **kwargs)
            top = recorder.top()
            if flat and top is not None and top.layer == layer:
                return fn(*args, **kwargs)
            span = recorder.open(layer, name)
            try:
                if delay:
                    time.sleep(delay)
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(span, args, kwargs, result)
                return result
            finally:
                recorder.close(span)

        return wrapper

    # -- worker transport ----------------------------------------------------

    def flush_worker(self) -> None:
        """Append this worker's spans to its file and forget them."""
        with self._lock:
            spans, self.spans = self.spans, []
        if not spans:
            return
        path = self.out_dir / f"worker-{self._pid}.jsonl"
        with path.open("a", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span.to_dict(self._pid)) + "\n")

    def collect_workers(self) -> list[dict]:
        """Spans the pool workers shipped (files are removed once read)."""
        spans: list[dict] = []
        for path in sorted(self.out_dir.glob("worker-*.jsonl")):
            with path.open(encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
            path.unlink()
        return spans

    def local_spans(self) -> list[dict]:
        with self._lock:
            return [span.to_dict(self._pid) for span in self.spans]


# -- what each layer records --------------------------------------------------


def _status(span, args, kwargs, result) -> None:
    span.attrs["status"] = result.status.value


def _hit(span, args, kwargs, result) -> None:
    span.attrs["hit"] = result is not None


def _window(span, args, kwargs, result) -> None:
    span.attrs["backend"] = result.backend
    span.attrs["status"] = result.status.value


def _race(span, args, kwargs, result) -> None:
    winner, _completed = result
    span.attrs["winner"] = None if winner is None else winner.backend


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    # Modules by full name: ``repro.core.reduce_latency`` and others are
    # shadowed by same-named functions on their package.
    (
        bounds, formulation, partitioner, reduce_mod, refine_partitions,
        branch_and_bound, scipy_backend, ilp_model, facade, sharding, wire,
        worker, cache_mod, disk_cache, executor, graph_io,
    ) = (
        importlib.import_module(f"repro.{name}")
        for name in (
            "core.bounds", "core.formulation", "core.partitioner",
            "core.reduce_latency", "core.refine_partitions",
            "ilp.branch_and_bound", "ilp.scipy_backend", "ilp.model",
            "service.facade", "service.sharding", "service.wire",
            "service.worker", "solve.cache", "solve.disk_cache",
            "solve.executor", "taskgraph.io",
        )
    )

    wrap, patch = recorder.wrap, setattr

    # core.search: the N-loop in process, one N per shard in a worker.
    patch(
        partitioner, "refine_partitions_bound",
        wrap("core.search", "refine_partitions_bound",
             refine_partitions.refine_partitions_bound),
    )
    evaluate = wrap(
        "core.search", "evaluate_partition_bound",
        refine_partitions.evaluate_partition_bound,
    )
    patch(refine_partitions, "evaluate_partition_bound", evaluate)
    patch(worker, "evaluate_partition_bound", evaluate)

    # core.bounds / core.formulation
    patch(bounds, "packing_min_latency",
          wrap("core.bounds", "packing_min_latency",
               bounds.packing_min_latency))
    lp_bound = wrap("core.formulation", "lp_latency_lower_bound",
                    formulation.lp_latency_lower_bound)
    patch(formulation, "lp_latency_lower_bound", lp_bound)
    patch(reduce_mod, "lp_latency_lower_bound", lp_bound)
    template = formulation.ModelTemplate
    patch(template, "__init__",
          wrap("core.formulation", "template_build", template.__init__))
    patch(template, "instantiate",
          wrap("core.formulation", "instantiate", template.instantiate))
    model_cls = formulation.TemporalPartitioningModel
    patch(model_cls, "design_from",
          wrap("core.formulation", "decode", model_cls.design_from))

    # solve.*
    solve_executor = executor.SolveExecutor
    patch(solve_executor, "solve_window",
          wrap("solve.executor", "solve_window", solve_executor.solve_window,
               on_result=_window))
    patch(executor, "fingerprint_model",
          wrap("solve.fingerprint", "fingerprint_model",
               executor.fingerprint_model))
    for cls in (cache_mod.SolveCache, cache_mod.TieredSolveCache):
        patch(cls, "lookup",
              wrap("solve.cache", "lookup", cls.lookup, on_result=_hit,
                   flat=True))
    disk = disk_cache.DiskSolveCache
    patch(disk, "lookup",
          wrap("solve.disk_cache", "lookup", disk.lookup, on_result=_hit,
               delayable=True))
    for method in ("store_feasible", "store_infeasible"):
        patch(disk, method,
              wrap("solve.disk_cache", "store", getattr(disk, method)))
    patch(executor, "race_backends",
          _race_wrapper(recorder, executor.race_backends))

    # ilp.*: the backend registry, and every caller of the LP relaxation.
    ilp_model.register_backend(
        "highs",
        wrap("ilp.highs", "milp", scipy_backend.solve_with_highs,
             on_result=_status, delayable=True),
    )
    ilp_model.register_backend(
        "bnb",
        wrap("ilp.bnb", "branch_and_bound", branch_and_bound.solve_with_bnb,
             on_result=_status),
    )
    relaxation = wrap("ilp.highs", "lp", scipy_backend.solve_relaxation)
    patch(scipy_backend, "solve_relaxation", relaxation)
    patch(branch_and_bound, "solve_relaxation", relaxation)

    # service.*
    for name in ("encode_processor", "encode_config", "decode_processor",
                 "decode_config", "decode_request"):
        patch(wire, name,
              wrap("service.wire", name, getattr(wire, name), flat=True))
    patch(graph_io, "to_dict",
          wrap("service.wire", "graph_to_dict", graph_io.to_dict, flat=True))
    patch(facade, "solve_sharded",
          wrap("service.sharding", "solve_sharded", sharding.solve_sharded))
    service = facade.PartitionService
    patch(service, "_ensure_pool",
          wrap("service.pool", "ensure_pool", service._ensure_pool))
    patch(service, "_run_request",
          _request_wrapper(recorder, service._run_request))
    shard = _shard_wrapper(recorder, worker.solve_shard)
    # Pickled by reference: both names must resolve to the same object.
    patch(worker, "solve_shard", shard)
    patch(sharding, "solve_shard", shard)


def _race_wrapper(recorder: Recorder, race_backends):
    """Portfolio races: bind each attempt's thread to the race span.

    Only races with two or more contenders are recorded as
    ``solve.portfolio`` spans; a one-entry portfolio is a plain call.
    """

    def attempt(name, fn, race_span):
        def run(cancel):
            recorder.bind(race_span, race_span.request)
            span = recorder.open("solve.portfolio", "attempt")
            span.attrs["backend"] = name
            try:
                return fn(cancel)
            finally:
                recorder.close(span)

        return run

    def race(attempts, *args, **kwargs):
        race_span = recorder.top()
        return race_backends(
            [(name, attempt(name, fn, race_span)) for name, fn in attempts],
            *args,
            **kwargs,
        )

    traced = recorder.wrap("solve.portfolio", "race", race, on_result=_race)

    @functools.wraps(race_backends)
    def wrapper(attempts, *args, **kwargs):
        if not recorder.tracing or len(attempts) < 2:
            return race_backends(attempts, *args, **kwargs)
        return traced(attempts, *args, **kwargs)

    return wrapper


def _request_wrapper(recorder: Recorder, run_request):
    """Service coordinator threads: tag spans with the request's graph."""

    traced = recorder.wrap("service.request", "run_request", run_request)

    @functools.wraps(run_request)
    def wrapper(self, request_id, request, *args, **kwargs):
        if recorder.tracing:
            recorder.bind(None, request.graph.name)
        return traced(self, request_id, request, *args, **kwargs)

    return wrapper


def _shard_wrapper(recorder: Recorder, solve_shard):
    """One shard in a pool worker: tag its spans, then ship them home."""
    main_pid = os.getpid()
    traced = recorder.wrap("service.shard", "solve_shard", solve_shard)

    @functools.wraps(solve_shard)
    def wrapper(payload, *args, **kwargs):
        if not recorder.tracing:
            return solve_shard(payload, *args, **kwargs)
        if recorder.top() is None:
            recorder.bind(None, payload["graph"].get("name"))
        try:
            return traced(payload, *args, **kwargs)
        finally:
            if os.getpid() != main_pid:
                recorder.flush_worker()

    return wrapper


# -- per-layer metrics from the spans ------------------------------------------


def _covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals if e > start
        and s < end
    )
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per span id: duration minus what its children cover."""
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    return {
        span["id"]: (span["end"] - span["start"])
        - _covered(span["start"], span["end"], children.get(span["id"], ()))
        for span in spans
    }


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """The span-derived per-layer metrics (see README.md)."""
    own = self_times(spans)
    by_id = {span["id"]: span for span in spans}

    def select(layer, name=None):
        return [
            s for s in spans
            if s["layer"] == layer and (name is None or s["name"] == name)
        ]

    def seconds(selected) -> float:
        return sum(s["end"] - s["start"] for s in selected)

    search = select("core.search")
    windows = select("solve.executor")
    lookups = select("solve.cache")
    disk_lookups = select("solve.disk_cache", "lookup")
    races = select("solve.portfolio", "race")
    attempts = select("solve.portfolio", "attempt")
    milps = select("ilp.highs", "milp")
    lost = [
        a for a in attempts
        if a["parent"] in by_id
        and by_id[a["parent"]]["attrs"].get("winner") is not None
        and by_id[a["parent"]]["attrs"]["winner"] != a["attrs"]["backend"]
    ]
    hits = sum(1 for s in lookups if s["attrs"].get("hit"))
    metrics = {
        "core.search.self_s": sum(own[s["id"]] for s in search),
        "core.search.partition_bounds": len(
            select("core.search", "evaluate_partition_bound")
        ),
        "core.bounds.packing_s": seconds(select("core.bounds")),
        "core.bounds.packing_calls": len(select("core.bounds")),
        "core.formulation.lp_bound_s": seconds(
            select("core.formulation", "lp_latency_lower_bound")
        ),
        "core.formulation.lp_bound_calls": len(
            select("core.formulation", "lp_latency_lower_bound")
        ),
        "core.formulation.template_build_s": seconds(
            select("core.formulation", "template_build")
        ),
        "core.formulation.template_builds": len(
            select("core.formulation", "template_build")
        ),
        "core.formulation.instantiate_s": seconds(
            select("core.formulation", "instantiate")
        ),
        "core.formulation.instantiations": len(
            select("core.formulation", "instantiate")
        ),
        "core.formulation.decode_s": seconds(
            select("core.formulation", "decode")
        ),
        "solve.executor.window_s": seconds(windows),
        "solve.executor.windows": len(windows),
        "solve.executor.self_s": sum(own[s["id"]] for s in windows),
        "solve.fingerprint.s": seconds(select("solve.fingerprint")),
        "solve.fingerprint.calls": len(select("solve.fingerprint")),
        "solve.cache.lookup_s": seconds(lookups),
        "solve.cache.lookups": len(lookups),
        "solve.cache.hits": hits,
        "solve.cache.hit_ratio": hits / len(lookups) if lookups else 0.0,
        "solve.disk_cache.lookup_s": seconds(disk_lookups),
        "solve.disk_cache.hits": sum(
            1 for s in disk_lookups if s["attrs"].get("hit")
        ),
        "solve.disk_cache.store_s": seconds(
            select("solve.disk_cache", "store")
        ),
        "solve.disk_cache.stores": len(select("solve.disk_cache", "store")),
        "solve.portfolio.race_s": seconds(races),
        "solve.portfolio.races": len(races),
        "solve.portfolio.loser_s": seconds(lost),
        "ilp.highs.milp_s": seconds(milps),
        "ilp.highs.milp_calls": len(milps),
        "ilp.highs.timeout_s": seconds(
            m for m in milps
            if m["attrs"].get("status") in ("time_limit", "node_limit")
        ),
        "ilp.highs.lp_s": seconds(select("ilp.highs", "lp")),
        "ilp.bnb.s": seconds(select("ilp.bnb")),
        "ilp.bnb.calls": len(select("ilp.bnb")),
        "service.wire.s": seconds(select("service.wire")),
        "service.wire.calls": len(select("service.wire")),
        "service.sharding.s": seconds(select("service.sharding")),
        "service.shards": len(select("service.shard")),
        "service.pool_start_s": seconds(select("service.pool")),
    }
    for label in ANSWERED:
        metrics[f"solve.executor.answered.{label}"] = sum(
            1 for s in windows
            if s["attrs"].get("backend", "").split(":", 1)[0] == label
        )
    return metrics
