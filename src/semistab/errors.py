"""Exception types shared across the package."""


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
