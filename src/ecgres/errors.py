"""Exception hierarchy shared across the pipeline."""


class EcgresError(Exception):
    """Base class for all pipeline errors; `exit_code` is the CLI's exit status:
    2 input/data, 3 pipeline, 4 numeric, 5 checkpoint/compatibility."""

    exit_code = 3


# --- parsing / ingest ---

class ParseError(EcgresError):
    exit_code = 2


class UnsupportedFormat(ParseError):
    pass


class TruncatedSignal(ParseError):
    pass


class RangeError(ParseError):
    """Annotation sample index falls outside the record."""


class SelectionError(EcgresError):
    """A record required by the dataset selection is unusable."""

    exit_code = 2


# --- signal processing ---

class LengthError(EcgresError):
    pass


class ParameterError(EcgresError):
    exit_code = 2


# --- segmentation / datasets ---

class BoundarySkip(EcgresError):
    """A beat's window crosses the record boundary, so it cannot be cut."""


class SizeError(EcgresError):
    pass


# --- tensor engine / model ---

class ShapeError(EcgresError):
    exit_code = 5


class LabelError(EcgresError):
    pass


class NumericError(EcgresError):
    """Non-finite value encountered during training."""

    exit_code = 4


class CheckpointError(EcgresError):
    exit_code = 5


# --- evaluation / reporting ---

class InputError(EcgresError):
    pass
