"""Lazy package exports (PEP 562).

A package ``__init__`` hands :func:`lazy_exports` a map from each defining
module to the public names it provides.  Nothing is imported up front; the
first ``getattr`` of a name imports its module, caches the value in the
package namespace (so every later lookup is a plain dict hit) and returns
it.  ``from pkg import name``, ``from pkg import *`` and ``dir(pkg)`` all
go through the same path, which is what keeps ``repro query`` and friends
from paying for NumPy and the simulator at start-up (see DESIGN.md,
"Start-up and import layering").
"""

from __future__ import annotations

import importlib

__all__ = ["lazy_exports"]


def lazy_exports(namespace: dict, exports: "dict[str, tuple[str, ...]]") -> list:
    """Install ``__getattr__``/``__dir__`` on the package ``namespace``.

    ``exports`` maps a defining module's dotted name to the names it
    exports.  Returns the sorted export names, for the package's
    ``__all__``.
    """
    origin = {name: module for module, names in exports.items() for name in names}
    package = namespace["__name__"]

    def __getattr__(name: str):
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list:
        return sorted(set(namespace) | set(origin))

    namespace["__getattr__"] = __getattr__
    namespace["__dir__"] = __dir__
    return sorted(origin)
