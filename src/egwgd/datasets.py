"""Built-in benchmark data and dataset file parsing."""

from __future__ import annotations

import numpy as np

from .exceptions import DomainError

__all__ = ["AARSET", "FIXTURES", "load_values"]

# Aarset (1987): lifetimes of 50 devices, the canonical bathtub-hazard
# benchmark.  Sum 2284.3, n = 50.
AARSET = np.array([
    0.1, 0.2, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 3.0, 6.0,
    7.0, 11.0, 12.0, 18.0, 18.0, 18.0, 18.0, 18.0, 21.0, 32.0,
    36.0, 40.0, 45.0, 46.0, 47.0, 50.0, 55.0, 60.0, 63.0, 63.0,
    67.0, 67.0, 67.0, 67.0, 72.0, 75.0, 79.0, 82.0, 82.0, 83.0,
    84.0, 84.0, 84.0, 85.0, 85.0, 85.0, 85.0, 85.0, 86.0, 86.0,
])
AARSET.flags.writeable = False

FIXTURES = {"aarset": AARSET}


def _lifetimes(values) -> np.ndarray:
    """values as a float array, if it holds at least one value and each is finite and > 0."""
    v = np.asarray(values, dtype=float)
    if v.size < 1:
        raise DomainError("dataset must contain at least one value")
    if np.any(~np.isfinite(v)) or np.any(v <= 0.0):
        raise DomainError("all lifetimes must be finite and > 0")
    return v


def load_values(source: str) -> np.ndarray:
    """Load lifetimes from a fixture name or a text file.

    Files may be newline- or comma-delimited; ``#`` starts a comment.
    Raises DomainError naming the offending line for non-positive values.
    A file with no ``#`` is converted in one call, which parses each token
    as float() does; whenever that fails or a value is not > 0, the line
    loop runs instead and names the line.
    """
    key = source.strip().lower()
    if key in FIXTURES:
        return FIXTURES[key].copy()
    with open(source, "r", encoding="utf-8") as fh:
        text = fh.read()
    if "#" not in text:
        try:
            values = np.array(text.replace(",", " ").split(), dtype=float)
        except ValueError:
            values = None
        if values is not None and values.size and np.all(values > 0.0):
            return values
    return _load_lines(source, text)


def _load_lines(source: str, text: str) -> np.ndarray:
    """load_values of a file's text (newlines as reading the file gives them), line by line."""
    values = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        for tok in body.replace(",", " ").split():
            try:
                v = float(tok)
            except ValueError as exc:
                raise DomainError(f"{source}:{lineno}: not a number: {tok!r}") from exc
            if not v > 0.0:
                raise DomainError(f"{source}:{lineno}: non-positive value {tok}")
            values.append(v)
    if not values:
        raise DomainError(f"{source}: no data values found")
    return np.asarray(values, dtype=float)
