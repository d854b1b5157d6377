"""The three normal-CDF ufuncs the package needs: ``ndtr``, ``ndtri`` and ``log_ndtr``.

``import scipy.special`` runs scipy's whole package init, most of it the
array-API back-end layer, which costs every command about 0.2 s and
12-15 MB of peak memory before its first line of work.  The ufuncs themselves live in the
compiled module ``scipy.special._ufuncs``, so this module loads that
file under a temporary ``scipy.special`` package stub (a module whose
``__path__`` is scipy's ``special`` directory) and removes the stub at
once.  A later real ``import scipy.special`` then runs the real init,
which reuses the extension modules already loaded, so
``scipy.special.ndtr is ndtr`` holds either way.

When ``scipy.special`` is already imported the names come from it.  If
the direct load fails (the module path is scipy's private layout), every
``scipy.special*`` module the attempt added is removed and the names
come from the public ``from scipy.special import ...``.
"""

from __future__ import annotations

import importlib
import os
import sys
import types

__all__ = ["log_ndtr", "ndtr", "ndtri"]


def _direct_ufuncs():
    """``scipy.special._ufuncs``, loaded from its file under a ``scipy.special`` stub removed on return."""
    import scipy

    stub = types.ModuleType("scipy.special")
    stub.__path__ = [os.path.join(os.path.dirname(scipy.__file__), "special")]
    sys.modules["scipy.special"] = stub
    try:
        return importlib.import_module("scipy.special._ufuncs")
    finally:
        if sys.modules.get("scipy.special") is stub:
            del sys.modules["scipy.special"]
        if vars(scipy).get("special") is stub:
            del scipy.special


def _load():
    """``(ndtr, ndtri, log_ndtr)``: from ``scipy.special`` when imported, else the direct load, else the fallback."""
    if "scipy.special" not in sys.modules:
        before = set(sys.modules)
        try:
            ufuncs = _direct_ufuncs()
            return ufuncs.ndtr, ufuncs.ndtri, ufuncs.log_ndtr
        except Exception:
            for name in set(sys.modules) - before:
                if name.startswith("scipy.special."):
                    del sys.modules[name]
    from scipy.special import log_ndtr, ndtr, ndtri

    return ndtr, ndtri, log_ndtr


ndtr, ndtri, log_ndtr = _load()
