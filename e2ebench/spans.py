"""Layer spans recorded from outside the package, and the per-layer metrics.

``Tracer.install`` replaces each layer entry point, in every module that
calls it by name, with a wrapper that times the call and keeps its parent
link. Nothing inside ``src/`` changes. Spans are kept in memory merged per
call path: one node per (parent node, span name), holding the call count,
the summed duration, the summed duration of its child spans and any
observed counters. A layer's self time is duration minus child time.
``Tracer.dump`` writes the nodes as JSON when the command ends, and
``layer_metrics`` turns the dumps of one repeat into the metrics named in
``METRICS``.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from importlib import import_module


def _parsed(args, kwargs, result):
    return {"rows": len(result), "bytes": os.path.getsize(args[0])}


def _cells(args, kwargs, result):
    return {"cells": len(result.cells)}


def _samples(args, kwargs, result):
    return {"samples": kwargs["samples"] if "samples" in kwargs else args[2]}


def _comparisons(args, kwargs, result):
    samples, points = args[0], args[1]
    return {"comparisons": samples.shape[0] * points.shape[0] * samples.shape[1]}


def _front_size(args, kwargs, result):
    return {"front_size": len(result)}


def _written(args, kwargs, result):
    return {"bytes": len(args[1].encode("utf-8"))}


def _indicator(args):
    return "indicators." + str(args[0]).upper()


# (span name, binding sites as (pareto_judge module, attribute path), counters)
# A site is where callers look the function up at call time, so wrapping it
# there catches every call from that module.
ENTRY_POINTS = (
    ("ingest_report.parse_records", (("cli", "parse_records"),), _parsed),
    ("ingest_report.aggregate", (("cli", "aggregate"),), _cells),
    ("ingest_report.render_report", (("cli", "render_report"),), None),
    ("confusion_metrics.objective_point_of", (("ingest_report", "objective_point_of"),), None),
    ("objective_space.SolutionSet.as_array", (("objective_space", "SolutionSet.as_array"),), None),
    (_indicator, (("ingest_report", "evaluate_indicator"),), None),
    ("indicators.hypervolume_mc", (("indicators", "hypervolume_mc"),), _samples),
    ("kernels.count_in_box_union", (("_kernels", "count_in_box_union"),), _comparisons),
    ("kernels.dominance_counts", (("_kernels", "dominance_counts"),), None),
    ("kernels.nondominated_mask", (("_kernels", "nondominated_mask"),), None),
    (
        "objective_space.pareto_front",
        (("cli", "pareto_front"), ("ingest_report", "pareto_front")),
        _front_size,
    ),
    ("confusion_metrics.fbeta", (("fbeta_analysis", "fbeta"),), None),
    ("fbeta_analysis.fbeta_curve", (("cli", "fbeta_curve"), ("fbeta_analysis", "fbeta_curve")), None),
    ("fbeta_analysis.fbeta_envelope", (("cli", "fbeta_envelope"),), None),
    ("fbeta_analysis.render_fbeta_plot", (("cli", "render_fbeta_plot"),), None),
    ("fbeta_analysis.render_region_plot", (("cli", "render_region_plot"),), None),
    (
        "io.atomic_write_text",
        (("cli", "atomic_write_text"), ("ingest_report", "atomic_write_text"),
         ("fbeta_analysis", "atomic_write_text")),
        _written,
    ),
)


class Node:
    """All spans with one name under one parent node."""

    __slots__ = ("id", "parent", "name", "calls", "total", "child", "observed")

    def __init__(self, node_id: int, parent: int | None, name: str) -> None:
        self.id = node_id
        self.parent = parent
        self.name = name
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.observed: dict[str, list[int]] = {}


class Tracer:
    def __init__(self) -> None:
        root = Node(0, None, "root")
        self.nodes = [root]
        self.missing: list[str] = []
        self._index: dict[tuple[int, str], Node] = {}
        self._stack = [root]

    def _node(self, parent: Node, name: str) -> Node:
        node = self._index.get((parent.id, name))
        if node is None:
            node = Node(len(self.nodes), parent.id, name)
            self.nodes.append(node)
            self._index[(parent.id, name)] = node
        return node

    def wrap(self, fn, name, observe=None):
        """fn wrapped in a span; name is a string or a function of the call's args."""
        stack, lookup, clock = self._stack, self._node, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            node = lookup(parent, name(args) if callable(name) else name)
            stack.append(node)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                node.calls += 1
                node.total += elapsed
                parent.child += elapsed
            if observe is not None:
                for key, value in observe(args, kwargs, result).items():
                    node.observed.setdefault(key, []).append(value)
            return result

        return traced

    def install(self) -> None:
        """Wrap every ENTRY_POINTS site; a site the package lacks is listed in missing."""
        for name, sites, observe in ENTRY_POINTS:
            for module_name, path in sites:
                owner = import_module(f"pareto_judge.{module_name}")
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part, None)
                if owner is None or not hasattr(owner, attr):
                    self.missing.append(f"{module_name}.{path}")
                    continue
                setattr(owner, attr, self.wrap(getattr(owner, attr), name, observe))

    def dump(self, path: str, status: int) -> None:
        nodes = [
            {
                "id": n.id,
                "parent": n.parent,
                "name": n.name,
                "calls": n.calls,
                "total_s": n.total,
                "self_s": n.total - n.child,
                "observed": n.observed,
            }
            for n in self.nodes[1:]
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"status": status, "missing": self.missing, "nodes": nodes}, handle)


INDICATORS = ("ED", "GD", "HV", "SDR", "NDR")

# (metric name, unit, better); names follow <module>.<function>.<stat>
METRICS = (
    ("ingest_report.parse_records.calls", "count", "lower"),
    ("ingest_report.parse_records.self_s", "s", "lower"),
    ("ingest_report.parse_records.rows", "count", "higher"),
    ("ingest_report.parse_records.bytes", "B", "higher"),
    ("confusion_metrics.objective_point_of.calls", "count", "lower"),
    ("confusion_metrics.objective_point_of.self_s", "s", "lower"),
    ("confusion_metrics.objective_point_of.calls_per_row", "calls/row", "lower"),
    ("objective_space.SolutionSet.as_array.calls", "count", "lower"),
    ("objective_space.SolutionSet.as_array.self_s", "s", "lower"),
    ("ingest_report.aggregate.self_s", "s", "lower"),
    ("ingest_report.aggregate.cells", "count", "higher"),
    ("cli.self_s", "s", "lower"),
    *(
        (f"indicators.{name}.{stat}", unit, "lower")
        for name in INDICATORS
        for stat, unit in (("calls", "count"), ("self_s", "s"))
    ),
    ("indicators.HV.exact_calls", "count", "higher"),
    ("indicators.hypervolume_mc.calls", "count", "lower"),
    ("indicators.hypervolume_mc.self_s", "s", "lower"),
    ("indicators.hypervolume_mc.samples", "count", "lower"),
    ("kernels.count_in_box_union.calls", "count", "lower"),
    ("kernels.count_in_box_union.self_s", "s", "lower"),
    ("kernels.count_in_box_union.comparisons", "count", "lower"),
    ("kernels.dominance_counts.calls", "count", "lower"),
    ("kernels.dominance_counts.self_s", "s", "lower"),
    ("kernels.nondominated_mask.calls", "count", "lower"),
    ("kernels.nondominated_mask.self_s", "s", "lower"),
    ("objective_space.pareto_front.calls", "count", "lower"),
    ("objective_space.pareto_front.self_s", "s", "lower"),
    ("objective_space.front_size.min", "points", "lower"),
    ("objective_space.front_size.median", "points", "lower"),
    ("objective_space.front_size.max", "points", "lower"),
    ("confusion_metrics.fbeta.calls", "count", "lower"),
    ("confusion_metrics.fbeta.self_s", "s", "lower"),
    ("fbeta_analysis.fbeta_envelope.calls", "count", "lower"),
    ("fbeta_analysis.fbeta_envelope.self_s", "s", "lower"),
    ("fbeta_analysis.fbeta_curve.calls", "count", "lower"),
    ("fbeta_analysis.fbeta_curve.self_s", "s", "lower"),
    ("fbeta_analysis.render_fbeta_plot.self_s", "s", "lower"),
    ("fbeta_analysis.render_region_plot.self_s", "s", "lower"),
    ("ingest_report.render_report.self_s", "s", "lower"),
    ("io.atomic_write_text.calls", "count", "lower"),
    ("io.atomic_write_text.self_s", "s", "lower"),
    ("io.atomic_write_text.bytes", "B", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one repeat from the trace dumps of its commands.

    Returns every METRICS entry except trace.overhead_s, which compares
    traced with untraced repeats. A layer that did not run reads 0.
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    observed: dict[str, list[int]] = {}
    mc_under_hv = 0
    for dump in dumps:
        by_id = {n["id"]: n for n in dump["nodes"]}
        for node in dump["nodes"]:
            name = node["name"]
            calls[name] = calls.get(name, 0) + node["calls"]
            self_s[name] = self_s.get(name, 0.0) + node["self_s"]
            for key, values in node["observed"].items():
                observed.setdefault(f"{name}.{key}", []).extend(values)
            if name == "indicators.hypervolume_mc":
                parent = by_id.get(node["parent"])
                while parent is not None and parent["name"] != "indicators.HV":
                    parent = by_id.get(parent["parent"])
                if parent is not None:
                    mc_under_hv += node["calls"]

    def total(key: str) -> float:
        return sum(observed.get(key, ()))

    rows = total("ingest_report.parse_records.rows")
    point_calls = calls.get("confusion_metrics.objective_point_of", 0)
    sizes = observed.get("objective_space.pareto_front.front_size", [])
    derived = {
        "ingest_report.parse_records.rows": rows,
        "ingest_report.parse_records.bytes": total("ingest_report.parse_records.bytes"),
        "confusion_metrics.objective_point_of.calls_per_row": point_calls / rows if rows else 0.0,
        "ingest_report.aggregate.cells": total("ingest_report.aggregate.cells"),
        "indicators.HV.exact_calls": calls.get("indicators.HV", 0) - mc_under_hv,
        "indicators.hypervolume_mc.samples": total("indicators.hypervolume_mc.samples"),
        "kernels.count_in_box_union.comparisons": total("kernels.count_in_box_union.comparisons"),
        "objective_space.front_size.min": min(sizes, default=0),
        "objective_space.front_size.median": statistics.median(sizes) if sizes else 0,
        "objective_space.front_size.max": max(sizes, default=0),
        "io.atomic_write_text.bytes": total("io.atomic_write_text.bytes"),
    }
    metrics = {}
    for metric, _, _ in METRICS:
        span, _, stat = metric.rpartition(".")
        if metric in derived:
            metrics[metric] = derived[metric]
        elif stat == "calls":
            metrics[metric] = calls.get(span, 0)
        elif stat == "self_s":
            metrics[metric] = self_s.get(span, 0.0)
    return metrics
