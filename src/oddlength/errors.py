"""Exception types shared across the package."""


class OddLengthError(Exception):
    """Base class for every error raised by this package."""


class InvalidRank(OddLengthError):
    """Rank outside the allowed range for the requested family."""


class InvalidWindow(OddLengthError):
    """Window is not a valid (signed) permutation of the expected size."""


class SystemMismatch(OddLengthError):
    """Operands belong to different root systems."""


class TypeMismatch(OddLengthError):
    """Operation asked for a family it is not defined on."""


class IndexOutOfRange(OddLengthError, IndexError):
    """Simple root index outside [0, rank)."""


class NonTerminating(OddLengthError):
    """Closure failed to stabilize; indicates corrupt Cartan data."""


class BudgetExceeded(OddLengthError):
    """Requested enumeration is larger than the configured element budget."""


class NoPeak(OddLengthError):
    """Peak involution applied to a unimodal window."""


class NotApplicable(OddLengthError):
    """Star involution applied where the largest value sits at a border position."""


class IsChessboard(OddLengthError):
    """Chessboard involution applied to a chessboard window."""


class NoPrediction(OddLengthError):
    """No closed product form is on record for the requested type."""


class OutOfStatedRange(OddLengthError):
    """Closed form requested outside the range it is stated for."""


class VarMismatch(OddLengthError):
    """Polynomial operands carry different variable tuples."""


class Overflow(OddLengthError):
    """Coefficient or evaluation left the checked 64-bit range."""


class UnsupportedProfile(OddLengthError):
    """Statistic profile or restriction unavailable for the requested type."""


class CheckpointCorrupt(OddLengthError):
    """Checkpoint file failed integrity or compatibility checks."""


class WorkerFailure(OddLengthError):
    """A partition worker failed repeatedly."""


class PartOutOfRange(OddLengthError, ValueError):
    """Part index outside the partition of the requested group."""


class CheckpointUnwritable(OddLengthError):
    """Checkpoint path lies in a directory that cannot be written."""
