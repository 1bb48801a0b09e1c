"""Exception hierarchy shared by all jamsim stages."""


class JamSimError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameter(JamSimError, ValueError):
    """A value is out of range; `fields` names the settings the check read, if any."""

    def __init__(self, message: str, *fields: str):
        super().__init__(message)
        self.fields = fields


class InvalidSampleRate(InvalidParameter):
    """Sample rate must be a positive, finite number of samples/second."""


class FrequencyAboveNyquist(JamSimError):
    """A frequency was at or above half the sample rate."""


class LengthMismatch(JamSimError):
    """Two buffers that must align sample-for-sample have different lengths."""


class SampleRateMismatch(JamSimError):
    """Two buffers (or a buffer and a filter) disagree on sample rate."""


class BandAboveNyquist(JamSimError):
    """A filter passband edge was at or above half the sample rate."""


class InvalidOrder(InvalidParameter):
    """Bandpass order must be an even integer >= 2."""


class DesignUnstable(JamSimError, ValueError):
    """Filter synthesis produced an unstable or degenerate section cascade."""


class InvalidWindow(InvalidParameter):
    """Envelope window must cover at least one sample."""


class BufferTooShort(JamSimError):
    """The operation needs more samples than the buffer holds."""


class EmptyMeasurementRegion(JamSimError):
    """Skipping the transient left nothing to measure."""


class NonFiniteResult(JamSimError):
    """A measured result overflowed to inf or nan, so it cannot be written as JSON."""


class ParseError(JamSimError):
    """Scenario file is malformed.  Carries the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnknownKey(ParseError):
    """Scenario file used a key or section this tool does not define."""


class InvalidValue(ParseError):
    """Scenario file value failed to parse or is out of range."""
