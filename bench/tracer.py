"""Timing spans around the public functions of the sepgcn modules.

The benchmark runs a traced stage as

    python3 bench/tracer.py SPANS.json -- <sepgcn cli arguments>

This installs wrappers around the functions listed in ``TRACED``, runs
``sepgcn.cli.main`` under a root span, and writes every span and counter to
SPANS.json when the stage ends. Nothing under ``src/`` changes: the wrappers
replace the module attributes (and every ``from ... import`` copy of them)
in this process only. The stage's exit code is passed through.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

ROOT_SPAN = "cli.main"

# (module, attribute path, span name). A span's name is the layer metric it
# feeds; see aggregate() in run.py for which ones report self time.
TRACED = (
    ("sepgcn.data", "parse_checkins", "data.parse"),
    ("sepgcn.data", "build_dataset", "data.build_dataset"),
    ("sepgcn.data", "save_snapshot", "data.snapshot_save"),
    ("sepgcn.data", "load_snapshot", "data.snapshot_load"),
    ("sepgcn.geo", "median_distance", "geo.median"),
    ("sepgcn.sep_graph", "EdgeIndex.from_dataset", "sep_graph.index"),
    ("sepgcn.sep_graph", "candidate_pairs", "sep_graph.candidates"),
    ("sepgcn.sep_graph", "build_sep_matrix", "sep_graph.build"),
    ("sepgcn.sep_graph", "normalize_sep", "sep_graph.normalize"),
    ("sepgcn.sep_graph", "save_sep_matrix", "sep_graph.save"),
    ("sepgcn.sep_graph", "load_sep_matrix", "sep_graph.load"),
    ("sepgcn.graph", "build_adjacency", "graph.adjacency"),
    ("sepgcn.graph", "spmv", "graph.spmv"),
    ("sepgcn.model", "build_operator", "model.operator"),
    ("sepgcn.model", "forward", "model.forward"),
    ("sepgcn.model", "edge_embed", "model.edge_embed"),
    ("sepgcn.model", "SepOperator.update", "model.edge_update"),
    ("sepgcn.model", "SepOperator.update_adjoint", "model.edge_adjoint"),
    ("sepgcn.training", "TripletSampler.sample", "training.sample"),
    ("sepgcn.training", "ranking_grad_estar", "training.rank_grad"),
    ("sepgcn.training", "backward", "training.backward"),
    ("sepgcn.training", "AdamOptimizer.step", "training.optimizer"),
    ("sepgcn.training", "SgdOptimizer.step", "training.optimizer"),
    ("sepgcn.evaluate", "make_ranking_hook", "training.hook"),
    ("sepgcn.evaluate", "rank_all", "evaluate.rank_all"),
    ("sepgcn.evaluate", "metrics_at_k", "evaluate.metrics"),
)

_OPERATOR_MATRICES = ("x", "xt", "pu", "pi", "put", "pit", "gu", "gi")


class Tracer:
    """Spans and counters kept in memory until write() is called.

    A span is (id, name, parent id or -1, start, end) in perf_counter
    seconds; the parent is the span that was open when it started.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        span_id = len(self.spans)
        parent = self._open[-1] if self._open else -1
        record = [span_id, name, parent, time.perf_counter(), None]
        self.spans.append(record)
        self._open.append(span_id)
        try:
            return fn(*args, **kwargs)
        finally:
            record[4] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "sep_graph.build":
                result = self._build_with_peak(fn, args, kwargs)
            else:
                result = self.call(name, fn, *args, **kwargs)
            _count(self.counts, name, result)
            return result

        return traced

    def _build_with_peak(self, fn, args, kwargs):
        # peak of traced allocations (numpy buffers included) during one build
        tracemalloc.start()
        try:
            return self.call("sep_graph.build", fn, *args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            key = "sep_graph.build_peak_bytes"
            self.counts[key] = max(self.counts[key], peak)

    def write(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps({"spans": self.spans, "counts": dict(self.counts)}), encoding="utf-8"
        )


def _count(counts: Counter, name: str, result) -> None:
    """Work counts read from the return value of a traced call."""
    if name == "data.snapshot_load":
        counts["data.interactions"] = len(result.interactions)
    elif name == "sep_graph.candidates":
        counts["sep_graph.candidates"] += len(result[0])
    elif name == "sep_graph.build":
        counts["sep_graph.kept_pairs"] += result.nnz // 2
    elif name == "model.operator" and result is not None:
        counts["model.operator_nnz"] += sum(getattr(result, m).nnz for m in _OPERATOR_MATRICES)
    elif name == "training.sample":
        counts["training.batches"] += 1
        counts["training.triples"] += len(result)
    elif name == "evaluate.rank_all":
        counts["evaluate.users"] += len(result)


def install(tracer: Tracer) -> None:
    """Replace each traced function, in its module and wherever it was imported."""
    modules = [
        importlib.import_module(m)
        for m in ("sepgcn.data", "sepgcn.geo", "sepgcn.sep_graph", "sepgcn.graph",
                  "sepgcn.model", "sepgcn.training", "sepgcn.evaluate", "sepgcn.cli")
    ]
    for module_name, attr, name in TRACED:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(tracer.wrap(name, raw.__func__)))
            else:
                setattr(cls, meth, tracer.wrap(name, raw))
            continue
        original = getattr(owner, attr)
        if name == "training.hook":
            wrapped = _hook_factory(tracer, original)
        else:
            wrapped = tracer.wrap(name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def _hook_factory(tracer: Tracer, make_hook):
    """make_ranking_hook, returning a hook whose every call is one span."""

    @functools.wraps(make_hook)
    def factory(*args, **kwargs):
        return tracer.wrap("training.hook", make_hook(*args, **kwargs))

    return factory


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <sepgcn arguments>", file=sys.stderr)
        return 2
    from sepgcn import cli

    tracer = Tracer()
    install(tracer)
    try:
        return tracer.call(ROOT_SPAN, cli.main, argv[2:])
    finally:
        tracer.write(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
