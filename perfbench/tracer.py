"""In-memory spans around the calls into each layer, and the per-layer
metrics derived from them.

The tracer changes nothing under ``src/``.  It wraps the module
attributes through which one layer calls the next (``HOOKS``) and puts
the originals back when it is uninstalled.  Every wrapped call, and every
request the benchmark makes, records one span: id, name, start, end,
parent span and run id.  All spans of one request share its run id.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from math import comb
from typing import Any

# (module, attribute, span name): the call-through points that are wrapped.
HOOKS = [
    ("chromarep.cli", "search", "search.search"),
    ("chromarep.search", "verify", "search.leaf_verify"),
    ("chromarep.search", "canonical_form", "colouring.canonical_form"),
    # are_isomorphic reaches canonical_form through its own module
    ("chromarep.colouring", "canonical_form", "colouring.canonical_form"),
    ("chromarep.constructions", "verify", "colouring.verify"),
]
# construct() also reaches every builder it imported from these modules
BUILDER_MODULES = ("geometry", "quasigroup")

SEARCH_MS = range(5, 13)


def _verify_attrs(args, report):
    return {"m": args[0].m, "passed": report.passed}


# What a span keeps of its call's arguments and result.
ATTRS = {
    "search.search": lambda args, out: {
        "nodes": out.nodes,
        "per_m": [[r.m, r.nodes, r.seconds] for r in out.per_m]},
    "search.leaf_verify": _verify_attrs,
    "colouring.verify": _verify_attrs,
    "search.enumerate": lambda args, out: {"classes": len(out[0])},
    "constructions.construct": lambda args, out: (
        {"m": out.m} if hasattr(out, "m") else {}),
}


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    attrs: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def hooks():
    """Every (module, attribute, span name) that ``Tracer`` wraps."""
    out = list(HOOKS)
    constructions = importlib.import_module("chromarep.constructions")
    for attr, value in sorted(vars(constructions).items()):
        module = getattr(value, "__module__", "")
        layer = module.rpartition(".")[2]
        if inspect.isfunction(value) and layer in BUILDER_MODULES:
            out.append(("chromarep.constructions", attr, f"{layer}.{attr}"))
    return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self._stack: list[int] = []
        self._next_id = 0

    def call(self, name: str, fn, args=(), kwargs=None) -> Any:
        """Call fn(*args, **kwargs) inside a span named ``name``."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        out = None
        start = time.perf_counter()
        try:
            out = fn(*args, **(kwargs or {}))
            return out
        finally:
            end = time.perf_counter()
            self._stack.pop()
            attrs = ATTRS[name](args, out) \
                if out is not None and name in ATTRS else None
            self.spans.append(Span(span_id, name, start, end, parent,
                                   self.run, attrs))

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    @contextmanager
    def installed(self):
        """Wrap every hook for the duration of the block, then restore
        the originals and check that they are back."""
        saved = []
        try:
            for module_name, attr, name in hooks():
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
        for module, attr, original in saved:
            if getattr(module, attr) is not original:
                raise RuntimeError(f"{module.__name__}.{attr} not restored")

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.id, s.name, s.start, s.end, s.parent,
                                     s.run, s.attrs],
                                    separators=(",", ":")) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics from the spans of one pass, by metric name."""
    child_seconds: dict[int, float] = defaultdict(float)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            child_seconds[s.parent] += s.seconds

    def total(name):
        return sum(s.seconds for s in by_name[name])

    def self_seconds(name):
        return sum(s.seconds - child_seconds[s.id] for s in by_name[name])

    out: dict[str, float] = {}

    searches = by_name["search.search"]
    nodes = sum(s.attrs["nodes"] for s in searches if s.attrs)
    out["search.nodes"] = nodes
    out["search.nodes_per_s"] = _ratio(nodes, total("search.search"))
    per_m_nodes: dict[int, int] = defaultdict(int)
    per_m_seconds: dict[int, float] = defaultdict(float)
    for s in searches:
        for m, m_nodes, m_seconds in (s.attrs or {}).get("per_m", []):
            per_m_nodes[m] += m_nodes
            per_m_seconds[m] += m_seconds
    for m in SEARCH_MS:
        out[f"search.m{m}.nodes"] = per_m_nodes[m]
        out[f"search.m{m}.s"] = per_m_seconds[m]

    leaves = by_name["search.leaf_verify"]
    out["search.leaf_verify.calls"] = len(leaves)
    out["search.leaf_verify.s"] = total("search.leaf_verify")
    out["search.leaf_verify.pass_ratio"] = _ratio(
        sum(s.attrs["passed"] for s in leaves if s.attrs), len(leaves))

    # enumerate_representations canonicalises each labelled solution once
    enumerations = {s.id for s in by_name["search.enumerate"]}
    raw = sum(1 for s in by_name["colouring.canonical_form"]
              if s.parent in enumerations)
    classes = sum(s.attrs["classes"] for s in by_name["search.enumerate"]
                  if s.attrs)
    out["search.enumerate.raw"] = raw
    out["search.enumerate.classes"] = classes
    out["search.enumerate.class_ratio"] = _ratio(classes, raw)

    verifies = leaves + by_name["colouring.verify"]
    verify_seconds = sum(s.seconds for s in verifies)
    triangles = sum(comb(s.attrs["m"], 3) for s in verifies if s.attrs)
    out["colouring.verify.calls"] = len(verifies)
    out["colouring.verify.s"] = verify_seconds
    out["colouring.verify.triangles"] = triangles
    out["colouring.verify.triangles_per_s"] = _ratio(triangles,
                                                     verify_seconds)

    canon = by_name["colouring.canonical_form"]
    out["colouring.canonical_form.calls"] = len(canon)
    out["colouring.canonical_form.s"] = total("colouring.canonical_form")
    out["colouring.canonical_form.max_s"] = max(
        (s.seconds for s in canon), default=0.0)

    constructs = by_name["constructions.construct"]
    sizes = [s.attrs["m"] for s in constructs if s.attrs and "m" in s.attrs]
    out["constructions.construct.calls"] = len(constructs)
    out["constructions.construct.self_s"] = self_seconds(
        "constructions.construct")
    out["constructions.vertices"] = sum(sizes)
    out["constructions.max_m"] = max(sizes, default=0)

    for layer in BUILDER_MODULES:
        out[f"{layer}.s"] = sum(s.seconds for s in spans
                                if s.name.startswith(layer + "."))
    out["cli.run.self_s"] = self_seconds("cli.run")
    return out
