"""smoothfit: sparse estimation and selection of mixed smooth regression models."""

__version__ = "0.1.0"

__all__ = ["backend_name", "__version__"]


def backend_name():
    """Numeric backend: all linear algebra runs in numpy, scipy and LAPACK."""
    return "numpy"
