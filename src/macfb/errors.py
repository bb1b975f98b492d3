"""Exception types shared across the package.

Two families matter to callers: ``ConfigError`` covers malformed user input
(tables, presets, config documents) and maps to CLI exit code 1;
``SolverError`` covers solves that cannot proceed within their configured
caps or hit an impossible branch, and maps to exit code 2.
"""

from __future__ import annotations

import math


def count_text(count: int) -> str:
    """A count for an error message: in digits when it has at most 18, else
    its order of magnitude, ``about 10^k``. Python refuses to print an int
    of more than 4300 digits, and a cap can be passed by far more."""
    if count < 10**18:
        return str(count)
    return f"about 10^{math.floor(math.log10(count))}"


class ConfigError(Exception):
    """Invalid user-supplied input."""


class SolverError(Exception):
    """A solve cannot proceed or produced no usable result."""


class NegativeEntry(ConfigError):
    def __init__(self, index, value):
        self.index = tuple(int(i) for i in index)
        self.value = float(value)
        super().__init__(f"kernel entry {self.index} is negative ({self.value!r})")


class NonStochastic(ConfigError):
    def __init__(self, x1, x2, rowsum):
        self.x1, self.x2, self.rowsum = int(x1), int(x2), float(rowsum)
        super().__init__(
            f"kernel column for inputs (x1={self.x1}, x2={self.x2}) sums to "
            f"{self.rowsum!r}, expected 1 within 1e-9"
        )


class UnknownPreset(ConfigError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown channel preset {name!r}")


class ParamOutOfRange(ConfigError):
    def __init__(self, preset, reason):
        self.preset = preset
        super().__init__(f"preset {preset!r}: {reason}")


class NotNormalized(ConfigError):
    def __init__(self, total):
        self.total = float(total)
        super().__init__(f"probability vector sums to {self.total!r}, expected 1")


class ParseError(ConfigError):
    def __init__(self, line, reason):
        self.line = line
        self.reason = reason
        super().__init__(f"parse error at line {line}: {reason}")


class ValidationError(ConfigError):
    def __init__(self, field, reason):
        self.field = field
        self.reason = reason
        super().__init__(f"invalid field {field!r}: {reason}")


class ActionSpaceTooLarge(SolverError):
    def __init__(self, count, cap):
        self.count, self.cap = int(count), int(cap)
        super().__init__(f"{count_text(self.count)} encoder actions exceed the cap of "
                         f"{count_text(self.cap)}")


class ImpossibleObservation(SolverError):
    def __init__(self, y, mass=0.0):
        self.y = int(y)
        self.mass = float(mass)
        super().__init__(
            f"output {self.y} has predictive mass {self.mass!r} <= 1e-15; "
            "no posterior exists"
        )


class HorizonTooDeep(SolverError):
    """The policy tree has more nodes than the cap; ``estimate`` is the
    count at which counting stopped, a lower bound on the tree's size."""

    def __init__(self, estimate, cap):
        self.estimate, self.cap = int(estimate), int(cap)
        super().__init__(f"{count_text(self.estimate)} or more policy tree nodes exceed the cap "
                         f"of {count_text(self.cap)}")


class LevelTooWide(SolverError):
    def __init__(self, level, count, cap):
        self.level, self.count, self.cap = int(level), int(count), int(cap)
        super().__init__(
            f"level {self.level} has {count_text(self.count)} (state, action, output) successors "
            f"to build, over the cap of {count_text(self.cap)}"
        )


class GridTooLarge(SolverError):
    def __init__(self, points, cap):
        self.points, self.cap = int(points), int(cap)
        super().__init__(f"{count_text(self.points)} simplex grid points exceed the cap of "
                         f"{count_text(self.cap)}")


class TableTooLarge(SolverError):
    def __init__(self, entries, cap):
        self.entries, self.cap = int(entries), int(cap)
        super().__init__(f"{count_text(self.entries)} trajectory entries exceed the cap of "
                         f"{count_text(self.cap)}")


class SearchTooLarge(SolverError):
    """More policy trees than the cap; ``trees`` is the count at which
    counting stopped, a lower bound on the number of trees."""

    def __init__(self, trees, cap):
        self.trees, self.cap = int(trees), int(cap)
        super().__init__(f"{count_text(self.trees)} or more policy trees exceed the search cap of "
                         f"{count_text(self.cap)}")


class NotConverged(SolverError):
    def __init__(self, gap, iterations):
        self.gap = float(gap)
        self.iterations = int(iterations)
        super().__init__(
            f"no convergence after {self.iterations} iterations (gap {self.gap!r})"
        )
