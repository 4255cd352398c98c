"""Exception hierarchy shared across the pipeline."""


class EcgresError(Exception):
    """Base class for all pipeline errors."""


# --- parsing / ingest ---

class ParseError(EcgresError):
    pass


class UnsupportedFormat(ParseError):
    pass


class TruncatedSignal(ParseError):
    pass


class RangeError(ParseError):
    """Annotation sample index falls outside the record."""


class SelectionError(EcgresError):
    """A record required by the dataset selection is unusable."""


# --- signal processing ---

class LengthError(EcgresError):
    pass


class ParameterError(EcgresError):
    pass


# --- segmentation / datasets ---

class BoundarySkip(EcgresError):
    """A beat's window crosses the record boundary, so it cannot be cut."""


class SizeError(EcgresError):
    pass


# --- tensor engine / model ---

class ShapeError(EcgresError):
    pass


class LabelError(EcgresError):
    pass


class NumericError(EcgresError):
    """Non-finite value encountered during training."""


class ConfigError(EcgresError):
    pass


class CheckpointError(EcgresError):
    pass


# --- evaluation / reporting ---

class InputError(EcgresError):
    pass


class IoError(EcgresError):
    pass
