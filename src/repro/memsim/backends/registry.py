"""Backend registry: name → class, the pluggable surface.

Backends register under a short name (``"baseline"``, ``"omega"``,
``"locked"``, ``"graphpim"``, ``"dynamic"``) so drivers and the CLI
can select them with a string (:func:`get_backend` /
``RunRequest(..., backend="omega")``). Third-party hierarchies get
the same treatment: decorate a :class:`HierarchyBackend` subclass
with :func:`register_backend`.
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.errors import SimulationError

__all__ = ["BACKENDS", "register_backend", "get_backend", "backend_names"]

#: Registry of backend names → classes (the pluggable surface).
BACKENDS: Dict[str, type] = {}


def register_backend(name: str):
    """Class decorator: register a backend under ``name``."""

    def deco(cls: Type) -> Type:
        cls.name = name
        BACKENDS[name] = cls
        return cls

    return deco


def get_backend(name: str) -> Type:
    """Look up a registered backend class by name."""
    try:
        return BACKENDS[name]
    except KeyError:
        raise SimulationError(
            f"unknown backend {name!r}; known: {', '.join(sorted(BACKENDS))}"
        ) from None


def backend_names() -> List[str]:
    """All registered backend names, sorted."""
    return sorted(BACKENDS)
