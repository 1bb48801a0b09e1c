"""The three errors jamsim raises; each type maps to one CLI exit code.

`JamSimError` is the base class and, raised as itself, a failed
simulation (exit 2): a filter that cannot be designed at the sample
rate, or a result that overflowed.  `InvalidParameter` is any invalid
input (exit 1).  `ParseError` is an invalid scenario file (exit 1) and
names its line.
"""


class JamSimError(Exception):
    """Base class for every error raised by this package; alone, a failed simulation."""


class InvalidParameter(JamSimError, ValueError):
    """An input is invalid; `fields` names the settings the check read, if any."""

    def __init__(self, message: str, *fields: str):
        super().__init__(message)
        self.fields = fields


class ParseError(InvalidParameter):
    """Scenario file is malformed or out of range.  Carries the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
