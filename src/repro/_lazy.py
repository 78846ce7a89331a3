"""Lazy package exports (PEP 562): a package loads a submodule only
when one of its names is first read.

Each package ``__init__`` under ``repro`` names its exports submodule
by submodule, and that table is both its ``__all__`` and its
``__getattr__``::

    __all__, __getattr__ = lazy_exports(globals(), {
        "simulator": ("Simulator",),
        "trace": ("TraceEntry", "TraceLog"),
    })

So ``import repro.netsim`` runs one small module, while ``from
repro.netsim import Simulator``, ``repro.netsim.Simulator`` and ``from
repro.netsim import *`` keep working.  A resolved name is stored in the
package's globals, so each costs the hook one call.  A name equal to
its submodule's name is the submodule itself: the root package exports
its subpackages that way.

Python does not consult a module's ``__getattr__`` for global-name
lookups inside that module, so code in an ``__init__`` imports what it
uses.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, List, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    namespace: Dict[str, Any],
    table: Dict[str, Sequence[str]],
) -> Tuple[List[str], Callable[[str], Any]]:
    """``(__all__, __getattr__)`` for the package whose globals are
    ``namespace``, exporting ``table``'s names from its submodules."""
    package = namespace["__name__"]
    home = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = import_module(f"{package}.{module}")
        if name != module:
            value = getattr(value, name)
        namespace[name] = value
        return value

    return list(home), __getattr__
