"""Exception types shared across the library."""


class ClimbDetectError(Exception):
    """Base class for all library errors."""


class EmptyRecording(ClimbDetectError):
    """Operation requires a non-empty recording."""


class MalformedRecording(ClimbDetectError):
    """A recording file lacks a column or holds a row that is not all finite numbers."""


class MalformedAnnotations(ClimbDetectError):
    """An annotation file is not valid JSON or holds an entry that is not a site track."""


class MalformedModel(ClimbDetectError):
    """A model file is not valid JSON or holds a sensor entry that is not a model."""


class InvalidParams(ClimbDetectError):
    """Gamma parameters must be positive and finite."""


class TooFewSamples(ClimbDetectError):
    """Not enough samples for a stable estimate or test."""


class DegenerateSample(ClimbDetectError):
    """Sample carries no spread (all values equal after flooring)."""


class LengthMismatch(ClimbDetectError):
    """Paired series must share length and timing."""


class MissingState(ClimbDetectError):
    """An annotation state has too few samples to fit a model."""


class DegenerateTruth(ClimbDetectError):
    """Ground truth contains only one state; the score is undefined."""


class SignalOverflow(ClimbDetectError):
    """A signal derived from finite inputs overflows the float range."""


class InsufficientOverlap(ClimbDetectError):
    """Signals do not overlap long enough at the requested lags."""


class InvalidPlan(ClimbDetectError):
    """Simulation plan is malformed (non-positive durations, empty sites)."""
