"""Exception hierarchy for the fedsynth pipeline.

Errors are grouped by how the command-line driver maps them to exit codes:
configuration/validation problems, numerical divergence during training, and
privacy-budget exhaustion.
"""

import contextlib
import json


class FedsynthError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(FedsynthError):
    """A config file, schema, CSV, or argument failed validation."""


class SchemaError(ValidationError):
    """A schema declaration is malformed or inconsistent with the data."""


class CsvFormatError(ValidationError):
    """A CSV file could not be parsed against its declared schema."""


class CheckpointError(ValidationError):
    """A checkpoint file is missing, corrupt, or built from another config."""


class DivergenceError(FedsynthError):
    """Training produced non-finite losses, gradients, or parameters."""


class PrivacyBudgetError(FedsynthError):
    """The privacy budget cannot accommodate the requested training plan."""


class CalibrationError(PrivacyBudgetError):
    """No noise multiplier in the search bracket meets the epsilon target."""


def is_number(value) -> bool:
    """True for an int or a float. A bool is an int to Python, but JSON's
    true and false are not numbers."""
    return not isinstance(value, bool) and isinstance(value, (int, float))


def require_number(value, name: str) -> None:
    """Raise ValidationError unless ``value`` is a number (``is_number``)."""
    if not is_number(value):
        raise ValidationError(f"{name} must be a number, got {value!r}")


def require_int(value, name: str, minimum: int, maximum: int | None = None) -> None:
    """Raise ValidationError unless ``value`` is an integer (not a bool) >=
    ``minimum`` (and <= ``maximum`` if given)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ValidationError(f"{name} must be an integer <= {maximum}, got {value!r}")


@contextlib.contextmanager
def reading(what: str, error: type = ValidationError):
    """Turn a failure to read ``what`` in the block into ``error`` naming it.

    An OSError says it cannot be read, undecodable bytes that it is not
    UTF-8, undecodable text that it is not JSON, and a missing field or one
    of the wrong type or value that it is malformed. Package errors raised
    in the block pass through unchanged.
    """
    try:
        yield
    except OSError as exc:
        raise error(f"cannot read {what}: {exc}") from exc
    except UnicodeDecodeError as exc:  # its repr would hold the whole undecoded buffer
        raise error(f"{what} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{what} is not valid JSON: {exc}") from exc
    except (LookupError, TypeError, ValueError) as exc:
        raise error(f"{what} is malformed: {exc!r}") from exc
