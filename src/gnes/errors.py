"""Exception types shared across the package, and the field checks of its configurations."""

import dataclasses
import math
import numbers


class GnesError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(GnesError):
    """A vector or matrix does not match the declared block structure."""

    def __init__(self, message: str, block: str | None = None):
        self.block = block
        if block is not None:
            message = f"{message} (block: {block})"
        super().__init__(message)


class ConfigurationError(GnesError):
    """A parameter or configuration document violates a validity condition."""

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(message)


def is_integer(value) -> bool:
    """An integer, numpy integers included; never a boolean."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A finite real number, numpy scalars included; never a boolean."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def is_list(value) -> bool:
    return isinstance(value, (list, tuple))


# what a field takes, by the type of its default; a None default takes a number
_FIELD_KINDS = {
    float: (is_number, "a finite number"),
    int: (is_integer, "an integer"),
    bool: (lambda value: type(value) is bool, "true or false"),
    str: (lambda value: type(value) is str, "a string"),
}


def check_field_types(config, skip: tuple = (), coerce: bool = False):
    """Check each field of the dataclass config against the type of its default.

    A field whose default is None also takes None. Fields named in skip,
    and fields with a default factory, are checked by their owner.
    coerce stores numbers as float and integers as int.
    """
    for f in dataclasses.fields(config):
        if f.name in skip or f.default is dataclasses.MISSING:
            continue
        value = getattr(config, f.name)
        if f.default is None and value is None:
            continue
        kind = float if f.default is None else type(f.default)
        accepts, what = _FIELD_KINDS[kind]
        if not accepts(value):
            raise ConfigurationError(
                f"{f.name} must be {what}, not {type(value).__name__}", field=f.name
            )
        if coerce and kind in (float, int):
            object.__setattr__(config, f.name, kind(value))


class NumericError(GnesError):
    """A numerical evaluation produced a non-finite value."""

    def __init__(self, message: str, agent: int | None = None):
        self.agent = agent
        if agent is not None:
            message = f"{message} (agent {agent})"
        super().__init__(message)


class ToleranceError(GnesError):
    """An iterative subroutine stopped before reaching its target accuracy."""

    def __init__(self, message: str, achieved: float | None = None):
        self.achieved = achieved
        super().__init__(message)
