"""Deferred package exports: a public name's module loads on first access.

A package ``__init__`` that imports every submodule eagerly makes each
importer pay for all of them — a cluster worker that only decodes would
load the encoder, the cost model and the experiment runners.  With
``lazy_exports`` the package keeps its flat API (``from repro import
Encoder`` still works) while ``import repro.mpeg2.parser`` loads the
parser alone.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Tuple


def lazy_exports(
    package: str, exports: Dict[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """Module ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps each public name to the module that defines it.  The
    first access imports that module and caches the value on the package,
    so later lookups are plain attribute reads.
    """

    def __getattr__(name: str) -> object:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
