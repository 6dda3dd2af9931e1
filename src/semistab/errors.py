"""Exception types shared across the package, and the plain-text input readers."""


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
