"""Spans around the public entry points of each tilebench layer.

Wrappers are installed from here, under the name each caller looks the
function up by (a module global), and removed again afterwards.  Each span
records a name, start, end, the op it belongs to and its parent span, plus
the counts the call returns (steps, nodes, points, cells).  Inner-loop
helpers (``chebyshev``, ``pack_record``, ``Machine.resolver``) are never
wrapped: a span per call there would swamp what it measures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

# --- counters: what each boundary reports -----------------------------------


def _bound(fn):
    sig = inspect.signature(fn)

    def arguments(args, kwargs):
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments

    return arguments


def _run_machine_counts(fn):
    arguments = _bound(fn)

    def count(args, kwargs, out):
        budget = arguments(args, kwargs)["max_steps"]
        return {"steps": out.steps, "timeout": int(out.status == "timeout"),
                "headroom": out.steps / budget}

    return count


def _solve_counts(fn):
    arguments = _bound(fn)

    def count(args, kwargs, out):
        a = arguments(args, kwargs)
        if a["toroidal"]:
            mode = "torus"
        elif a["template"] is not None:
            mode = "fill"
        elif a["mode"] == "first":
            mode = "first"
        else:
            mode = "count"  # count and enumerate both search exhaustively
        return {"nodes": out.nodes, "mode": mode, "cells": a["width"] * a["height"],
                "solved": int(out.status == "solved"),
                "inconclusive": int(out.status == "inconclusive")}

    return count


def _find_islands_counts(fn):
    arguments = _bound(fn)

    def count(args, kwargs, out):
        islands, oversize = out
        return {"points": len(arguments(args, kwargs)["points"]),
                "components": len(islands) + len(oversize)}

    return count


def _verify_patch_counts(fn):
    arguments = _bound(fn)

    def count(args, kwargs, out):
        patch = arguments(args, kwargs)["patch"]
        return {"cells": patch.width * patch.height}

    return count


def _besicovitch_counts(fn):
    arguments = _bound(fn)

    def count(args, kwargs, out):
        return {"points": sum((2 * r + 1) ** 2 for r in arguments(args, kwargs)["radii"])}

    return count


def _aperiodicity_counts(fn):
    arguments = _bound(fn)

    def count(args, kwargs, out):
        return {"cells": (2 * arguments(args, kwargs)["radius"] + 1) ** 2}

    return count


# (module, attribute, span name, counter factory or None).  A function that
# several modules import is wrapped in each of them, because the caller
# resolves the name in its own module.
TARGETS = [
    ("tilebench.machine", "run_machine", "machine.run_machine", _run_machine_counts),
    ("tilebench.compiler.fixedpoint", "run_machine", "machine.run_machine", _run_machine_counts),
    ("tilebench.compiler.simulate", "run_machine", "machine.run_machine", _run_machine_counts),
    ("tilebench.machine", "run_encoded", "machine.run_encoded", None),
    ("tilebench.machine", "universal_machine", "machine.universal_machine", None),
    ("tilebench.compiler.fixedpoint", "build_fixed_point", "compiler.build_fixed_point", None),
    ("tilebench.compiler.fixedpoint", "run_checker", "compiler.run_checker", None),
    ("tilebench.compiler.fixedpoint", "assemble_self_patch", "compiler.assemble_self_patch", None),
    ("tilebench.compiler.fixedpoint", "decode_self_patch", "compiler.decode_self_patch", None),
    ("tilebench.compiler.simulate", "compile_simulation", "compiler.compile_simulation", None),
    ("tilebench.compiler.robust", "robustify", "compiler.robustify", None),
    ("tilebench.compiler.robust", "check_window_robust", "compiler.check_window_robust", None),
    ("tilebench.compiler.robust", "correct_errors", "compiler.correct_errors", None),
    ("tilebench.solver", "solve", "solver.solve", _solve_counts),
    ("tilebench.compiler.robust", "solve", "solver.solve", _solve_counts),
    ("tilebench.solver", "find_periods", "solver.find_periods", None),
    ("tilebench.solver", "check_simulation_window", "solver.check_simulation_window", None),
    ("tilebench.islands", "sample_bernoulli", "islands.sample_bernoulli", None),
    ("tilebench.islands", "clean", "islands.clean", None),
    ("tilebench.compiler.robust", "clean", "islands.clean", None),
    ("tilebench.islands", "find_islands", "islands.find_islands", _find_islands_counts),
    ("tilebench.core", "verify_patch", "core.verify_patch", _verify_patch_counts),
    ("tilebench.compiler.fixedpoint", "verify_patch", "core.verify_patch", _verify_patch_counts),
    ("tilebench.compiler.robust", "verify_patch", "core.verify_patch", _verify_patch_counts),
    ("tilebench.core", "besicovitch_distance", "core.besicovitch_distance", _besicovitch_counts),
    ("tilebench.substitution", "aperiodicity_fraction", "substitution.aperiodicity_fraction",
     _aperiodicity_counts),
    ("tilebench.substitution", "enforce_substitution", "substitution.enforce_substitution", None),
]


class Tracer:
    """Records spans in memory; ``install`` / ``uninstall`` swap the wrappers."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op: int | str | None = "setup"
        self._kind: str | None = None
        self._saved: list[tuple[object, str, object]] = []

    def begin_op(self, index, kind) -> None:
        self._op, self._kind = index, kind

    def _wrap(self, name: str, fn, counter):
        count = counter(fn) if counter is not None else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:  # between ops: the benchmark's own checks
                return fn(*args, **kwargs)
            span = {"id": len(self.spans), "name": name, "op": self._op, "kind": self._kind,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = clock()
                self._stack.pop()
            if count is not None:
                span.update(count(args, kwargs, out))
            return out

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("wrappers are already installed")
        for module_name, attr, name, counter in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, counter))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def originals() -> dict[tuple[str, str], object]:
    """The functions currently bound at every target, for restore checks."""
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in TARGETS}


# --- per-layer metrics --------------------------------------------------------


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = []
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children[s["id"]]):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out.append(s["end"] - s["start"] - covered)
    return out


MACHINE_CLASSES = ("resident", "walk", "probe", "mutation", "utm")
SOLVER_MODES = ("first", "count", "torus", "fill")
ISLAND_CLASSES = ("sparse", "dense")

# Op kinds whose checker runs count in each machine class; a run under
# run_encoded is always "utm".
_MACHINE_CLASS_OF = {"resident": "resident", "utm": "resident", "walk": "walk",
                     "worst_walk": "walk", "probe": "probe", "block_probe": "probe",
                     "mutation": "mutation"}


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(all_spans: list[dict], untraced_s: float, traced_s: float) -> dict[str, tuple]:
    """Per-layer metrics: builds from the set-up spans, everything else from op spans."""
    by_id = {s["id"]: s for s in all_spans}
    setup = [s for s in all_spans if s["op"] == "setup"]
    pairs = [(s, t) for s, t in zip(all_spans, self_times(all_spans)) if s["op"] != "setup"]
    spans = [s for s, _ in pairs]
    m: dict[str, tuple] = {}

    def dur(s):
        return s["end"] - s["start"]

    def total(name, key=None, where=lambda s: True, among=None):
        return sum((s[key] if key else dur(s)) for s in (spans if among is None else among)
                   if s["name"] == name and where(s))

    def built(name):
        return total(name, among=setup)

    def self_of(prefix):
        return sum(t for s, t in pairs if s["name"].startswith(prefix))

    runs = [s for s in spans if s["name"] == "machine.run_machine" and "steps" in s]

    def machine_class(s):
        parent = by_id.get(s["parent"])
        if parent is not None and parent["name"] == "machine.run_encoded":
            return "utm"
        return _MACHINE_CLASS_OF.get(s["kind"])

    m["machine.runs"] = (len(runs), "count")
    m["machine.steps"] = (sum(s["steps"] for s in runs), "count")
    m["machine.self_s"] = (self_of("machine."), "s")
    m["machine.timeouts"] = (sum(s["timeout"] for s in runs), "count")
    m["machine.budget_headroom"] = (max((s["headroom"] for s in runs), default=0.0), "frac")
    for cls in MACHINE_CLASSES:
        mine = [s for s in runs if machine_class(s) == cls]
        steps, secs = sum(s["steps"] for s in mine), sum(dur(s) for s in mine)
        m[f"machine.{cls}.steps_per_s"] = (_rate(steps, secs), "1/s")
        m[f"machine.{cls}.steps"] = (steps, "count")
        m[f"machine.{cls}.s"] = (secs, "s")
    m["machine.universal_build_s"] = (built("machine.universal_machine"), "s")

    m["compiler.build_fixed_point_s"] = (built("compiler.build_fixed_point"), "s")
    m["compiler.run_checker.self_s"] = (self_of("compiler.run_checker"), "s")
    m["compiler.assemble_self_patch_s"] = (total("compiler.assemble_self_patch"), "s")
    m["compiler.decode_self_patch_s"] = (total("compiler.decode_self_patch"), "s")
    m["compiler.compile_simulation_s"] = (built("compiler.compile_simulation"), "s")
    m["compiler.robustify_s"] = (built("compiler.robustify"), "s")
    m["compiler.check_window_robust.self_s"] = (self_of("compiler.check_window_robust"), "s")
    m["compiler.correct_errors.self_s"] = (self_of("compiler.correct_errors"), "s")

    solves = [s for s in spans if s["name"] == "solver.solve" and "nodes" in s]
    m["solver.calls"] = (len(solves), "count")
    m["solver.nodes"] = (sum(s["nodes"] for s in solves), "count")
    m["solver.self_s"] = (self_of("solver."), "s")
    m["solver.inconclusive"] = (sum(s["inconclusive"] for s in solves), "count")
    for mode in SOLVER_MODES:
        mine = [s for s in solves if s["mode"] == mode]
        nodes, secs = sum(s["nodes"] for s in mine), sum(dur(s) for s in mine)
        m[f"solver.{mode}.nodes_per_s"] = (_rate(nodes, secs), "1/s")
        m[f"solver.{mode}.nodes"] = (nodes, "count")
        m[f"solver.{mode}.s"] = (secs, "s")
    firsts = [s for s in solves if s["mode"] == "first" and s["solved"]]
    m["solver.first.useful_ratio"] = (
        _rate(sum(s["cells"] for s in firsts), sum(s["nodes"] for s in firsts)), "frac")

    finds = [s for s in spans if s["name"] == "islands.find_islands" and "points" in s]
    m["islands.points"] = (sum(s["points"] for s in finds), "count")
    m["islands.components"] = (sum(s["components"] for s in finds), "count")
    m["islands.self_s"] = (self_of("islands."), "s")
    for cls in ISLAND_CLASSES:
        mine = [s for s in finds if s["kind"] == cls]
        pts, secs = sum(s["points"] for s in mine), sum(dur(s) for s in mine)
        m[f"islands.{cls}.points_per_s"] = (_rate(pts, secs), "1/s")
        m[f"islands.{cls}.points"] = (pts, "count")
        m[f"islands.{cls}.s"] = (secs, "s")
    m["islands.sample_s"] = (total("islands.sample_bernoulli"), "s")

    cells = total("core.verify_patch", "cells", lambda s: "cells" in s)
    secs = total("core.verify_patch")
    m["core.verify_patch.cells"] = (cells, "count")
    m["core.verify_patch.s"] = (secs, "s")
    m["core.verify_patch.cells_per_s"] = (_rate(cells, secs), "1/s")
    pts = total("core.besicovitch_distance", "points", lambda s: "points" in s)
    secs = total("core.besicovitch_distance")
    m["core.besicovitch.points"] = (pts, "count")
    m["core.besicovitch.s"] = (secs, "s")
    m["core.besicovitch.points_per_s"] = (_rate(pts, secs), "1/s")

    cells = total("substitution.aperiodicity_fraction", "cells", lambda s: "cells" in s)
    secs = total("substitution.aperiodicity_fraction")
    m["substitution.aperiodicity.cells"] = (cells, "count")
    m["substitution.aperiodicity.s"] = (secs, "s")
    m["substitution.aperiodicity.cells_per_s"] = (_rate(cells, secs), "1/s")
    m["substitution.self_s"] = (self_of("substitution."), "s")

    m["trace.overhead_frac"] = (traced_s / untraced_s - 1, "frac")
    return m
