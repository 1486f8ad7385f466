"""Generator-matrix text format.

One row per line, ASCII characters '0'..'p-1'.  Whitespace inside rows is ignored
(some shipped fixtures carry embedded spaces or wrapped rows).  Lines
starting with '#' are comments, blank lines are skipped.  An optional header
line "q=<p> n=<n> k=<k>" fixes the field and declares the shape; without it
q is one more than the largest digit, and at least 2.  Only q = 2 and q = 3
are supported (`PrimeField` decides).  Trailing non-digit characters on a
row are stripped (one fixture ends with a stray ']'); non-digit characters
anywhere else are an error.  Each row is read straight into the byte row
that `FieldMatrix` stores, one byte per entry.
"""

from __future__ import annotations

import os
import re

from .code import LinearCode
from .errors import InvalidArgument, ParseError
from .gfmat import FieldMatrix, PrimeField

_HEADER_RE = re.compile(r"^q=(\d+)(?:\s+n=(\d+))?(?:\s+k=(\d+))?$", re.ASCII)
_ROW_RE = re.compile(r"[0-9]+")
# ASCII digit -> the byte value FieldMatrix stores for that entry
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))


def parse_matrix_text(text: str) -> LinearCode:
    q = n = k = None
    rows: list[bytes] = []
    row_lines: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _HEADER_RE.match(line)
        if m:
            if rows:
                raise ParseError(lineno, "header must precede all matrix rows")
            q = int(m.group(1))
            n = int(m.group(2)) if m.group(2) else None
            k = int(m.group(3)) if m.group(3) else None
            continue
        compact = line.replace(" ", "").replace("\t", "")
        # tolerate stray trailing punctuation (e.g. a lone ']') but nothing else
        stripped = compact.rstrip("]")
        if not _ROW_RE.fullmatch(stripped):
            raise ParseError(lineno, f"not a digit row: {raw!r}")
        if len(compact) - len(stripped) > 1:
            raise ParseError(lineno, "too much trailing garbage")
        row = stripped.encode("ascii").translate(_DIGIT_VALUES)
        if q is not None and max(row) >= q:
            raise ParseError(lineno, f"digit out of range for q={q}")
        rows.append(row)
        row_lines.append(lineno)
    if not rows:
        raise ParseError(None, "no matrix rows found")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ParseError(row_lines[-1], f"rows have differing lengths {sorted(widths)}")
    if q is None:
        q = max(2, max(max(r) for r in rows) + 1)
    if n is not None and n != len(rows[0]):
        raise ParseError(row_lines[0], f"header says n={n} but rows have {len(rows[0])} columns")
    if k is not None and k != len(rows):
        raise ParseError(row_lines[-1], f"header says k={k} but found {len(rows)} rows")
    field = PrimeField(q)
    return LinearCode(field, FieldMatrix(field, tuple(rows), len(rows[0])))


def parse_matrix_file(path: str | os.PathLike) -> LinearCode:
    if not isinstance(path, (str, os.PathLike)):  # `open` reads an int as a file descriptor
        raise InvalidArgument(f"a matrix file path must be a str or path, not {path!r}")
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ParseError(None, f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(None, f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    return parse_matrix_text(text)


def serialize_matrix(code: LinearCode) -> str:
    lines = [f"q={code.q} n={code.n} k={code.k}"]
    for row in code.generator.to_rows():
        lines.append("".join(str(e) for e in row))
    return "\n".join(lines) + "\n"
