"""Small shared helpers: atomic writes, the CSV codec, hashing, integer checks, angle tables."""

from __future__ import annotations

import hashlib
import math
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np

from .errors import ValidationError

_BLOCK_ROWS = 4096
ANGLE_TOL = 1e-9  # radians: two angles closer than this are the same angle


def atomic_write_text(path, text: str) -> None:
    """Write text to `path` atomically (temp file + rename in the same directory)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, columns, metadata=None) -> None:
    """Write `# key=value` metadata lines, the header, then one row per index.

    Every float is written as its repr, so a file read back with read_csv
    reproduces the columns bit for bit. Rows are formatted a block at a time,
    which bounds the temporary strings.
    """
    lines = [f"# {key}={value}" for key, value in (metadata or {}).items()]
    lines.append(",".join(header))
    columns = [np.ascontiguousarray(c, dtype=float).ravel() for c in columns]
    for start in range(0, min(map(len, columns)), _BLOCK_ROWS):
        cells = [_float_reprs(c[start:start + _BLOCK_ROWS]) for c in columns]
        lines.append("\n".join(map(",".join, zip(*cells)) if len(cells) > 1 else cells[0]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _float_reprs(values: np.ndarray) -> list[str]:
    """The repr of each float, formatted once per run of equal values.

    Values are compared by their float64 bit pattern, so 0.0 and -0.0 keep
    their own text. The columns the program writes repeat values in runs (the
    angle column of a samples file, x of a Wigner grid). Runs are found
    without a sort, which would cost more than it saves on a column of
    distinct values such as a trace.
    """
    bits = values.view(np.int64)
    new_run = np.empty(values.size, dtype=bool)
    new_run[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=new_run[1:])
    starts = np.flatnonzero(new_run)
    text = list(map(repr, values[starts].tolist()))
    if starts.size == values.size:
        return text
    return np.repeat(np.array(text, dtype=object), np.diff(starts, append=values.size)).tolist()


def read_csv(path, header) -> tuple[dict[str, float], np.ndarray]:
    """Read a file written by write_csv: (metadata, columns of shape (n_columns, rows)).

    Empty lines are skipped. A missing header, a row with the wrong number of
    fields, or a value or metadata value that is not a finite number raises
    ValidationError. The rows are streamed through one numpy call.
    """
    metadata = {}
    with open(path, "r", encoding="utf-8") as fh:
        line = ""
        for line in fh:
            line = line.strip()
            if not line.startswith("#"):
                if line:
                    break
                continue
            key, _, value = line[1:].partition("=")
            try:
                metadata[key.strip()] = float(value)
            except ValueError:
                raise ValidationError(f"{path}: bad metadata line {line!r}") from None
        if [h.strip() for h in line.split(",")] != list(header):
            raise ValidationError(f"{path}: expected header {','.join(header)!r}")
        try:
            with warnings.catch_warnings():
                # a file without rows is an empty table, not a warning
                warnings.simplefilter("ignore", UserWarning)
                table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            raise ValidationError(f"{path}: malformed row ({exc})") from exc
    if table.size and table.shape[1] != len(header):
        raise ValidationError(f"{path}: malformed rows of {table.shape[1]} fields")
    if not (np.isfinite(table).all() and all(map(math.isfinite, metadata.values()))):
        raise ValidationError(f"{path}: non-finite value")
    return metadata, np.ascontiguousarray(table.T).reshape(len(header), -1)


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def require_int(value, name: str, minimum: int = 0) -> None:
    """Raise ValidationError unless `value` is an int or numpy integer (not a bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")


def match_angle(angle: float, candidates) -> float | None:
    """The first of `candidates` within ANGLE_TOL of `angle` (radians), or None."""
    for candidate in candidates:
        if abs(candidate - angle) < ANGLE_TOL:
            return candidate
    return None


def lookup_angle(table: dict[float, float], nominal: float) -> float:
    """The value `table` holds for the nominal angle `nominal` (radians), matched by match_angle."""
    key = match_angle(nominal, table)
    if key is None:
        raise ValidationError(f"no entry for nominal angle {math.degrees(nominal):.4f} deg")
    return table[key]
