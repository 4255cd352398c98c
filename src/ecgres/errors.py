"""One error class per CLI exit code, carried as `exit_code`: 2 `ParseError`,
malformed input (a WFDB or `.ecgb` file, or an argument it cannot satisfy);
3 `EcgresError` itself, a pipeline error; 4 `NumericError`, non-finite values
in training; 5 `CheckpointError`, checkpoint refused.
"""


class EcgresError(Exception):
    exit_code = 3


class ParseError(EcgresError):
    exit_code = 2


class NumericError(EcgresError):
    exit_code = 4


class CheckpointError(EcgresError):
    exit_code = 5
