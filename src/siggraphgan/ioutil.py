"""File I/O: one CSV reader, one CSV writer, and atomic writes.

Every CSV the package reads goes through `read_csv_rows`, so price and
sample files follow the same `csv` rules and the same blank-row rule.
Every CSV it writes is built by `csv_text`. Every file it writes is
written to a temp sibling, then renamed into place. A file that cannot
be read or written is a `DataError` naming it.
"""

from __future__ import annotations

import csv
import os
import tempfile

from .errors import DataError


def read_csv_rows(path):
    """The header row and the numbered data rows of a UTF-8 CSV file.

    Returns ``(header, rows)``: ``header`` is the first row (None for an
    empty file) and ``rows`` pairs every later row that is not blank with
    the 1-based number of its first line, which a quoted field with a line
    break in it makes differ from the row's count. A blank row is empty or
    one whitespace-only field. A file that cannot be opened, decoded or
    parsed is a `DataError` naming it; the parse is strict, so an
    unterminated quote or text after a closing quote is one, at
    ``path:line`` of the line where parsing stopped.
    """
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle, strict=True)
            first = 1
            for row in reader:
                rows.append((first, row))
                first = reader.line_num + 1
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: unreadable CSV: {exc}") from exc
    body = [
        (lineno, row)
        for lineno, row in rows[1:]
        if len(row) > 1 or (row and row[0].strip())
    ]
    return (rows[0][1] if rows else None), body


def csv_text(header, rows) -> str:
    """CSV text of a header and rows, one line each; floats written by their repr."""
    lines = [",".join(header)]
    lines += [
        ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row)
        for row in rows
    ]
    return "\n".join(lines) + "\n"


def atomic_write_bytes(path, data: bytes):
    """Write ``data`` to a temp sibling of ``path``, then rename it into place.

    A write that fails is a `DataError` naming ``path``, and leaves no temp file.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=os.path.basename(path) + ".tmp")
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def atomic_write_text(path, text: str):
    atomic_write_bytes(path, text.encode("utf-8"))
