"""Exception hierarchy, and the one check of a setting's kind and range.

Anything raised on bad user input or malformed files derives from SlipError,
so the CLI can map it to exit code 2. FormatError covers every on-disk issue.
"""
from numbers import Real
from operator import index


class SlipError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSettingError(SlipError, ValueError):
    """A run or dataset setting lies outside its valid range."""


def check_setting(ok: bool, message: str) -> None:
    if not ok:
        raise InvalidSettingError(message)


def check_value(name: str, value, kind, bounds: str, *words):
    """Setting `name` as a plain `kind` (int: what operator.index takes;
    float: any real; (int, int): a tuple or list of two ints; a bool is
    none, so True is refused, not read as 1) in the interval `bounds`,
    "[lo, hi]" with "(" or ")" at an open end, or as one of the strings
    `words`. Else an InvalidSettingError: "<name> must be <kind> in
    <bounds>[ or <word>], got <value>"."""
    if isinstance(value, str) and value in words:
        return value
    lo, hi = map(float, bounds[1:-1].split(","))
    try:
        if isinstance(kind, tuple):  # a tuple or list of as many items
            if isinstance(value, (tuple, list)) and len(value) == len(kind):
                return tuple(check_value(name, item, item_kind, bounds)
                             for item, item_kind in zip(value, kind))
        elif type(value) is float or (not isinstance(value, bool) and (
                kind is int or isinstance(value, Real))):  # ABC test last
            got = index(value) if kind is int else float(value)
            if ((lo < got if bounds[0] == "(" else lo <= got)
                    and (got < hi if bounds[-1] == ")" else got <= hi)):
                return got
    except (InvalidSettingError, TypeError, OverflowError):
        pass  # an item refused, not an int, or an int past the largest float
    alternatives = "".join(f" or {word!r}" for word in words)
    what = {int: "an integer", float: "a finite real"}.get(
        kind, "a pair of integers")
    raise InvalidSettingError(f"{name} must be {what} in {bounds}"
                              f"{alternatives}, got {value!r}")


def check_fields(obj, table: dict) -> None:
    """Set each field -> (kind, bounds[, word]) of `table` to its
    check_value in the frozen dataclass `obj`."""
    for name, spec in table.items():
        object.__setattr__(obj, name,
                           check_value(name, getattr(obj, name), *spec))


class ZeroVectorError(SlipError):
    """A vector that must be normalizable has a norm below 1e-12 or one
    that is not finite."""


class DimensionMismatchError(SlipError):
    """Operands have incompatible shapes."""


class EmptySequenceError(SlipError):
    """Text encoder received no tokens and no prompt context."""


class LabelOutOfRangeError(SlipError):
    """Class label outside [0, C)."""


class EmptyDatasetError(SlipError):
    """Training requires at least one bag."""


class MissingClassError(SlipError):
    """Training requires every class to appear at least once."""


class InsufficientBagsError(SlipError):
    """A class has fewer bags than the requested shot count."""


class RejectionExhaustedError(SlipError):
    """Could not draw sufficiently separated tissue archetypes."""


class FormatError(SlipError):
    """Base class for file-format errors."""


class BadMagicError(FormatError):
    """File does not start with the expected magic bytes."""


class VersionUnsupportedError(FormatError):
    """File declares a version this reader does not understand."""


class TruncatedFileError(FormatError):
    """File ends before the declared payload."""


class CorruptHeaderError(FormatError):
    """Header fields are internally inconsistent with the file contents."""


class EmptyPromptSetError(FormatError):
    """Prompt file contained no usable lines."""


class NotUtf8Error(FormatError):
    """A text file holds bytes that are not UTF-8."""


class SchemaError(FormatError):
    """JSON report is missing required fields or has a bad schema version."""
