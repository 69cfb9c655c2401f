"""Where each panel lives: one module per panel.

Every ``StudyReport`` panel's partial is defined in the module of the
panel's result type, so its rule, state, merge and finalize read in one
file.  The panel modules, the two extensions and the shared fold helpers
sit below the orchestration in :mod:`repro.core.parallel`: none of them
imports it.
"""

import ast
import importlib
import inspect
import typing

from repro.core.parallel import ShardPartials
from repro.core.pipeline import StudyReport

#: Modules beside the panels that must not import the orchestration.
EXTENSIONS = (
    "repro.core.throughdevice_full",
    "repro.core.cohorts",
    "repro.core.folds",
)


def imported_modules(module) -> set[str]:
    """Every module ``module`` imports, ``from x import y`` as ``x.y``
    as well as ``x``."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_each_panel_lives_in_one_module():
    results = typing.get_type_hints(StudyReport)
    partials = typing.get_type_hints(ShardPartials)
    panels = [name for name in results if name != "quarantine"]
    assert set(panels) <= set(partials)
    misplaced = {
        name: (partials[name].__module__, results[name].__module__)
        for name in panels
        if partials[name].__module__ != results[name].__module__
    }
    assert not misplaced, f"partial module != result module: {misplaced}"

    modules = {results[name].__module__ for name in panels} | set(EXTENSIONS)
    upward = sorted(
        name
        for name in modules
        if "repro.core.parallel"
        in imported_modules(importlib.import_module(name))
    )
    assert not upward, f"import repro.core.parallel: {upward}"
