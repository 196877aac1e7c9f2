"""Exception types shared across the package.

Each class carries the exit code the command line ends with when it is
raised: 2 for a request that is malformed or undefined (usage), 3 for one
that is well formed but past a size, range or resource limit, or that
checkpoint trouble or a part failing on every try stopped.
"""


class OddLengthError(Exception):
    """Base class for every error raised by this package."""
    exit_code = 2


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
    exit_code = 3


class BudgetExceeded(OddLengthError):
    """Requested enumeration or root system build past its budget."""
    exit_code = 3


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
    """A coefficient, evaluation or root count past its checked integer range."""
    exit_code = 3


class UnsupportedProfile(OddLengthError):
    """Statistic profile or restriction unavailable for the requested type."""


class CheckpointCorrupt(OddLengthError):
    """Checkpoint file failed integrity or compatibility checks."""
    exit_code = 3


class WorkerFailure(OddLengthError):
    """A part of a partitioned run raised on each of its tries."""
    exit_code = 3


class PartOutOfRange(OddLengthError, ValueError):
    """Part index outside the partition of the requested group."""


class CheckpointUnwritable(OddLengthError):
    """Checkpoint path lies in a directory that cannot be written."""
    exit_code = 3


class WeightsTooLarge(OddLengthError):
    """Root weights whose codes could leave float32's exact integer range."""
    exit_code = 3
