"""Package façades that import a submodule when one of its names is first read.

A façade (``repro.dse``, ``repro.flow``, ...) re-exports its submodules'
public names. Importing every submodule up front would make ``import
repro`` load modules no compile runs (the functional simulators, the
sweep and ledger layers, ...), and every fresh process would pay for
them. A façade instead declares which submodule defines each name, and
PEP 562's module ``__getattr__`` imports that submodule on the first
read of one of its names. ``from repro.dse import DseEngine`` and
``repro.dse.engine`` work as plain imports do.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Mapping, Sequence

__all__ = ["attach"]


def attach(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for the façade ``package``.

    ``exports`` maps each submodule (its name relative to ``package``) to
    the public names it defines. The first read of a name imports its
    submodule and stores the value on the package, so later reads are
    plain attribute lookups. Each submodule in ``exports`` is itself an
    attribute of the package, as it was when the façade imported it.
    """
    owners = {name: module for module, names in exports.items() for name in names}

    def submodule(module: str):
        # The import statement's machinery, unlike importlib.import_module,
        # is what ``-X importtime`` reports.
        qualname = f"{package}.{module}"
        __import__(qualname)
        return sys.modules[qualname]

    def __getattr__(name: str) -> object:
        if name in owners:
            value = getattr(submodule(owners[name]), name)
        elif name in exports:
            value = submodule(name)
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *owners, *exports})

    return __getattr__, __dir__, list(owners)
