"""RTE001 — every route code must be emitted and accounted.

The replay engine partitions a trace by ``ROUTE_*`` code: the cache
path executes ``ROUTE_CACHE``, everything else must be batch-charged
by whichever backend emitted it. A route that a backend assigns but
never accounts silently drops events from the counters — exactly the
kind of conservation bug the paper's ratios cannot survive. This rule
checks, statically, for every ``ROUTE_*`` constant defined in
``repro.memsim.routes``:

- engine-owned codes (referenced by the replay driver
  ``repro.memsim.replay``, by the cache path ``repro.memsim.cachestate``
  that executes ``ROUTE_CACHE``, or by ``routes.py`` itself, e.g. the
  masking sentinel) are exempt;
- every other code must be *emitted* by at least one backend
  (``routes[mask] = ROUTE_X``) or declared in a module-level
  ``ROUTES_DECLARED_UNUSED`` tuple in ``routes.py``;
- each backend that emits a code must *account* it: compare it in its
  own ``account`` (``routes == ROUTE_X``), inherit the shared
  handling in ``backends/base.py``, or declare it in a module-level
  ``ROUTES_ACCOUNTED_AT_ROUTE_TIME`` tuple (for stateful stages like
  the source-buffer walk that charge their events while routing).
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, Set

from repro.analyze.astutil import string_tuple_constant
from repro.analyze.findings import Finding
from repro.analyze.project import ProjectIndex, SourceModule
from repro.analyze.registry import rule

__all__ = ["check_route_exhaustiveness"]

ROUTES_MODULE = "repro.memsim.routes"
ENGINE_MODULES = ("repro.memsim.replay", "repro.memsim.cachestate")
BACKENDS_PACKAGE = "repro.memsim.backends"
BASE_MODULE = "repro.memsim.backends.base"

_ROUTE_NAME = re.compile(r"^ROUTE_[A-Z0-9_]+$")


def _route_definitions(module: SourceModule) -> Dict[str, int]:
    """Top-level ``ROUTE_*`` constants → definition line."""
    routes: Dict[str, int] = {}
    for node in module.tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and _ROUTE_NAME.match(target.id):
                routes[target.id] = node.lineno
    return routes


def _referenced_routes(module: SourceModule) -> Set[str]:
    """Every ``ROUTE_*`` name loaded (not assigned) in the module."""
    return {
        node.id
        for node in ast.walk(module.tree)
        if isinstance(node, ast.Name)
        and isinstance(node.ctx, ast.Load)
        and _ROUTE_NAME.match(node.id)
    }


def _emitted_routes(module: SourceModule) -> Dict[str, int]:
    """Routes assigned into a subscript (``routes[mask] = ROUTE_X``)."""
    emitted: Dict[str, int] = {}
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Assign):
            continue
        if not any(isinstance(t, ast.Subscript) for t in node.targets):
            continue
        value = node.value
        if isinstance(value, ast.Name) and _ROUTE_NAME.match(value.id):
            emitted.setdefault(value.id, node.lineno)
    return emitted


def _compared_routes(module: SourceModule) -> Set[str]:
    """Routes appearing in a comparison (``routes == ROUTE_X``)."""
    compared: Set[str] = set()
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Compare):
            continue
        for expr in [node.left] + list(node.comparators):
            if isinstance(expr, ast.Name) and _ROUTE_NAME.match(expr.id):
                compared.add(expr.id)
    return compared


@rule(
    id="RTE001",
    name="route-exhaustiveness",
    description=(
        "every ROUTE_* code is engine-owned, or emitted by a backend"
        " that also accounts it, or explicitly declared unused"
    ),
)
def check_route_exhaustiveness(
    project: ProjectIndex,
) -> Iterator[Finding]:
    """Cross-check route definitions, emissions, and accounting."""
    info = check_route_exhaustiveness.info  # type: ignore[attr-defined]
    routes_mod = project.get(ROUTES_MODULE)
    if routes_mod is None:
        return
    defined = _route_definitions(routes_mod)
    declared_unused = string_tuple_constant(
        routes_mod.tree, "ROUTES_DECLARED_UNUSED"
    )

    engine_owned = _referenced_routes(routes_mod)
    for name in ENGINE_MODULES:
        engine_mod = project.get(name)
        if engine_mod is not None:
            engine_owned |= _referenced_routes(engine_mod)

    base_mod = project.get(BASE_MODULE)
    base_accounted = (
        _compared_routes(base_mod) if base_mod is not None else set()
    )

    emitted_anywhere: Set[str] = set()
    for module in project.iter_modules(BACKENDS_PACKAGE):
        if module.name in (BACKENDS_PACKAGE, BASE_MODULE):
            continue
        emitted = _emitted_routes(module)
        emitted_anywhere |= set(emitted)
        compared = _compared_routes(module)
        inline = string_tuple_constant(
            module.tree, "ROUTES_ACCOUNTED_AT_ROUTE_TIME"
        )
        for name in sorted(set(inline) - set(defined)):
            yield info.finding(
                module.rel_path, 1,
                f"ROUTES_ACCOUNTED_AT_ROUTE_TIME names {name!r},"
                " which repro.memsim.routes does not define",
            )
        handled = compared | base_accounted | inline
        for name, lineno in sorted(emitted.items()):
            if name in engine_owned or name in handled:
                continue
            yield info.finding(
                module.rel_path, lineno,
                f"backend emits {name} but never accounts it: add a"
                f" 'routes == {name}' branch to account(), rely on"
                " the shared base accounting, or declare it in"
                " ROUTES_ACCOUNTED_AT_ROUTE_TIME with the stage that"
                " charges it",
            )

    for name, lineno in sorted(defined.items()):
        if name in engine_owned or name in emitted_anywhere:
            continue
        if name in declared_unused:
            continue
        yield info.finding(
            routes_mod.rel_path, lineno,
            f"route code {name} is defined but no backend emits it"
            " and the engine does not own it; remove it or add it to"
            " ROUTES_DECLARED_UNUSED in repro.memsim.routes",
        )
