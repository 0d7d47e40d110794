"""Exception types shared across the package."""

from .graph import _shown


class NotComposableError(ValueError):
    """Raised when a chain of operators contains a pair that cannot be composed.

    Carries the first offending pair (applied, next_applied) so callers can
    report exactly where the chain breaks.
    """

    def __init__(self, first: int, second: int, n: int):
        self.pair = (first, second)
        self.n = n
        super().__init__(f"operators ({_shown(first, format)}, {_shown(second, format)}) are not "
                         f"composable in dimension n={_shown(n, format)}")


class LevelMismatchError(ValueError):
    """Raised when a component vector is fed to an operator expecting a
    different level."""

    def __init__(self, expected: int, got: int):
        self.expected = expected
        self.got = got
        super().__init__(f"expected component vector at level {_shown(expected, format)}, "
                         f"got level {_shown(got, format)}")


class EnumerationCapError(ValueError):
    """Raised when an enumeration would materialize more words than the cap."""

    def __init__(self, count: int, cap: int):
        self.count = count
        self.cap = cap
        super().__init__(f"enumeration of at least {_shown(count, format)} words exceeds "
                         f"the cap of {_shown(cap, format)}")
