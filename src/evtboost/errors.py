"""Exception hierarchy shared across the package, and :func:`open_text`,
which reads input files as UTF-8.

The CLI maps these onto its exit-code contract: ConfigError -> 1,
DataError -> 2, NumericalError -> 3.
"""

from contextlib import contextmanager


class EvtBoostError(Exception):
    """Base class for all package errors."""


class ConfigError(EvtBoostError):
    """Bad configuration: unknown keys, missing files, invalid values."""


class DataError(EvtBoostError):
    """Invalid data: malformed rows, domain violations, shape mismatches."""


class NumericalError(EvtBoostError):
    """Numerical failure: underflow, non-convergence, factorization failure."""


@contextmanager
def open_text(path, newline=None):
    """``open(path)`` for reading UTF-8 text; bytes that are not UTF-8,
    wherever the body reads them, raise :class:`DataError` naming the path."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
