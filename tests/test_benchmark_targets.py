"""The benchmark's entry points still exist in the library.

``perfbench/`` imports library modules by name and its tracer wraps 27
functions by (module, attribute).  Its own tests are not part of this
suite, so a rename or deletion under ``src/`` would otherwise show only
when the benchmark runs.
"""

import importlib
import inspect
import os

import pytest

from tilebench import solver
from tilebench.compiler import fixedpoint, robust

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_tracer_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    for name in ("fixpoint_audit", "window_solve", "island_sweep"):
        importlib.import_module(name)
    tracing = importlib.import_module("tracing")
    found = tracing.originals()
    assert len(found) == len(tracing.TARGETS) == 27
    assert all(callable(fn) for fn in found.values())


def test_run_checker_binds_as_the_audit_calls_it():
    # fixpoint-audit calls run_checker(fp, quad, track=...) and nothing more
    sig = inspect.signature(fixedpoint.run_checker)
    assert list(sig.parameters) == ["fp", "quad", "track"]
    sig.bind(object(), object(), track=[])


@pytest.mark.parametrize("fn, args", [
    (robust.robustify, 1),  # robustify(ts)
    (robust.check_window_robust, 3),  # check_window_robust(ts, 4, 2)
    (robust.correct_errors, 2),  # correct_errors(rob, patch)
    (solver.check_simulation_window, 4),  # check_simulation_window(tau, rho, 2, 6)
])
def test_window_solve_calls_bind(fn, args):
    # window-solve passes positional arguments only; these searches read
    # their budgets from solver.MAX_NODES and MAX_SOLUTIONS, not a keyword
    sig = inspect.signature(fn)
    sig.bind(*[object()] * args)
    for removed in ("max_nodes", "max_solutions"):
        with pytest.raises(TypeError):
            sig.bind(*[object()] * args, **{removed: 1})
