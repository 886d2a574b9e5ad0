"""Exception types shared across the package."""


class InvariantError(ValueError):
    """An input violates a documented domain invariant."""


class SpaceMismatchError(InvariantError):
    """Binary operation applied to elements of two different measure spaces."""


class TermSyntaxError(InvariantError):
    """Lattice-term source text failed to parse."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
