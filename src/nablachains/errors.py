"""Exception types shared across the package."""


class NotComposableError(ValueError):
    """Raised when a chain of operators contains a pair that cannot be composed.

    Carries the first offending pair (applied, next_applied) so callers can
    report exactly where the chain breaks.
    """

    def __init__(self, first: int, second: int, n: int):
        self.pair = (first, second)
        self.n = n
        super().__init__(
            f"operators ({first}, {second}) are not composable in dimension n={n}"
        )


class LevelMismatchError(ValueError):
    """Raised when a component vector is fed to an operator expecting a
    different level."""

    def __init__(self, expected: int, got: int):
        self.expected = expected
        self.got = got
        super().__init__(f"expected component vector at level {expected}, got level {got}")


class EnumerationCapError(ValueError):
    """Raised when an enumeration would materialize more words than the cap."""

    def __init__(self, count: int, cap: int):
        self.count = count
        self.cap = cap
        super().__init__(f"enumeration of at least {count} words exceeds the cap of {cap}")
