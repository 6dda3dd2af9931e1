"""Exception types shared across the package, and its plain-text readers and writers."""

import itertools
import numbers
import os
import stat

#: rows that ``write_csv`` formats and writes at a time
_CSV_BLOCK_ROWS = 256


class DomainError(ValueError):
    """An argument lies outside the documented domain of an operation."""


class PreconditionError(DomainError):
    """A semantic precondition failed (e.g. wrong stability class)."""


class InvariantViolation(ValueError):
    """A constructed object failed one of its documented invariants."""


class ResourceCapError(RuntimeError):
    """A requested computation exceeds a configured resource cap."""


def read_ascii(path) -> str:
    """Contents of an ASCII input file; any other byte raises DomainError."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: byte {exc.start} is not ASCII") from None


def _open_ascii(path):
    """``path`` opened to write ASCII with LF line ends, its parent directory created."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return open(path, "w", encoding="ascii", newline="\n")


def write_ascii(path, text: str) -> None:
    """Write ``text`` to ``path`` as ASCII with LF line ends, creating the parent
    directory; the text is built first, so a failure leaves the file as it was."""
    with _open_ascii(path) as fh:
        fh.write(text)


def csv_cell(cell) -> str:
    """One cell of the package's CSV dialect: a str without comma, double quote or
    line break; an integer; another real as its float's ``repr``.  Any other cell,
    NaN and bool among them, raises InvariantViolation: failures are tagged strings."""
    if type(cell) is float and cell == cell or type(cell) is int:  # the common case, first
        return repr(cell)
    if isinstance(cell, str) and not any(ch in cell for ch in ',"\n\r'):
        return cell
    if isinstance(cell, numbers.Real) and not isinstance(cell, bool):
        if isinstance(cell, numbers.Integral):
            return str(int(cell))
        if float(cell) == float(cell):  # a NaN is not == itself
            return repr(float(cell))
    raise InvariantViolation(f"{cell!r} cannot be a CSV cell: cells are strings without a "
                             f"comma, double quote or line break, integers, or non-NaN reals")


def _csv_lines(rows, width: int) -> str:
    """Lines of ``csv_cell`` cells, one per row, each row ``width`` cells wide."""
    rows = list(rows)
    ragged = set(map(len, rows)) - {width}
    if ragged:
        raise InvariantViolation(f"CSV row with {min(ragged)} cells under {width} columns")
    return "".join(",".join(map(csv_cell, row)) + "\n" for row in rows)


def csv_text(header, rows) -> str:
    """CSV text of a header line and rows of ``csv_cell`` cells, each row as
    wide as the header; LF line ends, no quoting."""
    return _csv_lines((header, *rows), len(header))


def write_csv(path, header, rows) -> None:
    """Write ``csv_text(header, rows)`` to ``path`` as ``write_ascii`` would, but
    format and write the rows _CSV_BLOCK_ROWS at a time, so only one block's text
    is held.  A refused cell, or any other failure, removes the file, so no
    partial table is left behind; a path that is not a regular file, such as
    ``/dev/null`` or a link, is never removed."""
    rows, width = iter(rows), len(header)
    with _open_ascii(path) as fh:
        try:
            fh.write(_csv_lines([header], width))
            while block := list(itertools.islice(rows, _CSV_BLOCK_ROWS)):
                fh.write(_csv_lines(block, width))
        except BaseException:
            fh.close()
            if stat.S_ISREG(os.lstat(path).st_mode):
                os.remove(path)
            raise


def read_descriptor(text: str, what: str) -> tuple:
    """(tag, entries, rows) of a descriptor, the grammar of measure and potential files:
    a header line ``tag key=value ...``, then ``key=value`` lines up to the first
    line without ``=``, which starts ``rows``.  A malformed entry (no ``=`` or no
    key) or a repeated key raises DomainError."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DomainError(f"empty {what} descriptor")
    tag, *items = lines[0].split()
    n_body = next((i for i, ln in enumerate(lines[1:]) if "=" not in ln), len(lines) - 1)
    entries = {}
    for item in items + lines[1:1 + n_body]:
        key, eq, val = (part.strip() for part in item.partition("="))
        if not (eq and key):
            raise DomainError(f"malformed {what} entry: {item!r}")
        if key in entries:
            raise DomainError(f"{what} entry {key}= is given twice")
        entries[key] = val
    return tag, entries, lines[1 + n_body:]
