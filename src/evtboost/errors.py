"""Exception hierarchy shared across the package, :func:`open_text`,
which reads input files as UTF-8, and :func:`publish`, which writes an
output file whole.

The CLI maps these onto its exit-code contract: ConfigError -> 1,
DataError -> 2, NumericalError -> 3.
"""

import os
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


@contextmanager
def publish(path):
    """``open(path)`` for writing UTF-8 text (``newline=""``), published
    whole: the body writes ``<path>.<pid>.tmp`` beside the target, which
    replaces the target once the body ends and is removed if it fails, so a
    failed write leaves no file or the old one.  A target that exists and
    is not a regular file (``/dev/stdout``, a FIFO) is written in place,
    never renamed over."""
    in_place = os.path.exists(path) and not os.path.isfile(path)
    if not in_place:
        path = os.path.realpath(path)   # a symlink's file is replaced, not the link
    target = path if in_place else f"{path}.{os.getpid()}.tmp"
    fh = open(target, "w" if in_place else "x", newline="", encoding="utf-8")
    try:
        with fh:
            yield fh
        if not in_place:
            os.replace(target, path)
    except BaseException:
        if not in_place:
            os.remove(target)
        raise
