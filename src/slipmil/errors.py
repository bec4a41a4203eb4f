"""Exception hierarchy.

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


def check_integer(value, name: str) -> int:
    """The setting as an int: anything operator.index takes, else refused."""
    try:
        return index(value)
    except TypeError:
        raise InvalidSettingError(f"{name} must be an integer, got "
                                  f"{value!r}") from None


def check_number(value, name: str) -> None:
    check_setting(isinstance(value, Real),
                  f"{name} must be a real number, got {value!r}")


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
