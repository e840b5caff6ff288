"""Spans around embedrank's public functions, recorded from outside the package.

Each wrapped function is replaced in every embedrank module that binds it,
so a call is traced whichever module makes it.  A span records its name,
start, end, parent span and a few counts taken from the arguments or the
result.  Spans stay in memory until `Tracer.dump` writes them out; the layer
metrics are computed from them afterwards.
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _code_size(args, kwargs, result):
    return {"words": args[0].size}


def _digest(args, kwargs, result):
    return {"digest": result.digest}


def _generators(args, kwargs, result):
    return {"generators": len(args[0].generators)}


def _search_counts(args, kwargs, result):
    return {
        "candidates": result.candidates_examined,
        "viable_codes": result.viable_codes,
        "completions": len(result.designs),
    }


# (module, attribute, span name, note).  A dotted attribute is a method.
TARGETS = (
    ("embedrank.embedding", "embedding_search", "embedding.search", _search_counts),
    ("embedrank.embedding", "sym_embedding_search", "embedding.sym", None),
    ("embedrank.embedding", "parallel_union_codewords", "embedding.parallel_union", None),
    ("embedrank.iso", "canonical_cert", "iso.cert", _digest),
    ("embedrank.iso", "PermGroup.order", "iso.order", _generators),
    ("embedrank.codes", "weight_distribution", "codes.wdist", _code_size),
    ("embedrank.codes", "codewords_of_weight", "codes.words_of_weight", _code_size),
    ("embedrank.codes", "iter_codewords", "codes.iter", _code_size),
    ("embedrank.designs", "verify_tdesign", "designs.verify_tdesign", None),
    ("embedrank.designs", "is_affine_resolvable", "designs.is_affine_resolvable", None),
    ("embedrank.designs", "good_block", "designs.good_block", None),
    ("embedrank.linalg", "mat_rref", "linalg.rref", None),
    ("embedrank.linalg", "mat_rank", "linalg.rank", None),
    ("embedrank.geometry", "ag_design", "geometry.ag", None),
    ("embedrank.geometry", "pg_design", "geometry.pg", None),
)


class Tracer:
    """In-memory span log; spans are dicts with id, name, parent, start, end."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, note):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(spans),
                "name": name,
                "parent": stack[-1] if stack else None,
                "start": clock(),
            }
            spans.append(span)
            stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span["end"] = clock()
            if note is not None:
                span.update(note(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Replace every embedrank binding of each target by its traced form."""
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "embedrank"]
        for module_name, attr, name, note in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(getattr(cls, meth), name, note))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(original, name, note)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _outermost(spans, names):
    """Spans named in `names` that have no ancestor also named in `names`."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        if s["name"] not in names:
            continue
        p = s["parent"]
        while p is not None and by_id[p]["name"] not in names:
            p = by_id[p]["parent"]
        if p is None:
            out.append(s)
    return out


def _total(spans) -> float:
    return sum((s["end"] - s["start"] for s in spans), 0.0)


def _self_time(spans, name) -> float:
    """Summed duration of `name` spans minus the time their direct children cover."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    return sum((s["end"] - s["start"] - child_time.get(s["id"], 0.0) for s in spans if s["name"] == name), 0.0)


WALKS = {"codes.wdist", "codes.words_of_weight", "codes.iter"}
FACTS = {"designs.verify_tdesign", "designs.is_affine_resolvable", "designs.good_block"}


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced pass (trace.overhead_s is added by the caller)."""
    certs = [s for s in spans if s["name"] == "iso.cert"]
    orders = [s for s in spans if s["name"] == "iso.order"]
    searches = [s for s in spans if s["name"] == "embedding.search"]
    walks = _outermost(spans, WALKS)
    words = sum(s["words"] for s in walks)
    walk_time = _total(_outermost(spans, WALKS | {"embedding.parallel_union"}))
    return {
        "iso.cert_s": _total(certs),
        "iso.cert_calls": len(certs),
        "iso.cert_max_s": max((s["end"] - s["start"] for s in certs), default=0.0),
        "iso.cert_yield": len({s["digest"] for s in certs}) / len(certs) if certs else 0.0,
        "iso.order_s": _total(_outermost(spans, {"iso.order"})),
        "iso.generators": sum(s["generators"] for s in orders),
        "embedding.search_self_s": _self_time(spans, "embedding.search"),
        "embedding.candidates": sum(s["candidates"] for s in searches),
        "embedding.viable_codes": sum(s["viable_codes"] for s in searches),
        "embedding.completions": sum(s["completions"] for s in searches),
        "embedding.sym_self_s": _self_time(spans, "embedding.sym"),
        "embedding.parallel_union_s": _total(_outermost(spans, {"embedding.parallel_union"})),
        "codes.enum_s": _total(_outermost(spans, {"codes.wdist", "codes.words_of_weight"})),
        "codes.words": words,
        "codes.words_per_s": words / walk_time if walk_time else 0.0,
        "designs.facts_s": _total(_outermost(spans, FACTS)),
        "designs.facts_calls": sum(1 for s in spans if s["name"] in FACTS),
        "linalg.rref_s": _total(_outermost(spans, {"linalg.rref", "linalg.rank"})),
        "geometry.build_s": _total(_outermost(spans, {"geometry.ag", "geometry.pg"})),
    }
