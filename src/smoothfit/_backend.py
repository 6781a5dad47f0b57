"""Kernel backend selection.

Hot numeric loops live in :mod:`smoothfit.kernels` and are compiled with
numba when available.  Setting ``SMOOTHFIT_NUMBA=0`` forces the pure-numpy
interpretation of the same functions; the same fallback keeps the package
importable when numba is missing.
"""

import os

_env = os.environ.get("SMOOTHFIT_NUMBA", "1").strip().lower()
_want_numba = _env not in ("0", "false", "off", "no")

if _want_numba:
    try:
        from numba import njit as _njit

        HAVE_NUMBA = True
    except ImportError:  # pragma: no cover - numba is a declared dependency
        HAVE_NUMBA = False
else:
    HAVE_NUMBA = False

USING_NUMBA = HAVE_NUMBA


def maybe_njit(*args, **kwargs):
    """Return ``numba.njit`` when the compiled backend is active, else a no-op."""
    if USING_NUMBA:
        return _njit(*args, **kwargs)

    def passthrough(func):
        return func

    return passthrough


def backend_name():
    return "numba" if USING_NUMBA else "numpy"
