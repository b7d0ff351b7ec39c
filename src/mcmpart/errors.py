"""Exception taxonomy shared across the package.

Every error carries a short machine-readable ``code`` so the CLI can emit
stable one-line diagnostics.
"""


class McmPartError(Exception):
    """Base class for all package errors."""

    code = "error"


class GraphFormatError(McmPartError):
    """Input document does not decode: a graph, partition, manifest or config file."""

    code = "parse-error"


class GraphCycleError(McmPartError):
    """The edge set contains a directed cycle."""

    code = "cycle-detected"


class DanglingEdgeError(McmPartError):
    """An edge references a node id outside the graph."""

    code = "dangling-edge"


class InvalidConfigError(McmPartError):
    """A configuration value is out of its legal range."""

    code = "invalid-config"


class InfeasibleError(McmPartError):
    """Backtracking exhausted the root domain: no valid assignment exists."""

    code = "proven-infeasible"


class StepBudgetError(McmPartError):
    """The solver exceeded its per-solve decision budget."""

    code = "step-budget-exceeded"


class LimitExceededError(McmPartError):
    """Exhaustive enumeration would scan more assignments than allowed."""

    code = "limit-exceeded"


class DimensionMismatchError(McmPartError):
    """Model parameters are incompatible with the given graph or topology."""

    code = "dimension-mismatch"


class CheckpointFormatError(McmPartError):
    """A checkpoint file is corrupt or has an unsupported version."""

    code = "checkpoint-format"
