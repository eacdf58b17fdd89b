"""Package-level exception types, mapped to CLI exit codes in cli.py."""


class CfPowerError(Exception):
    """Base class for package errors."""


class ConfigError(CfPowerError):
    """Bad configuration file or inconsistent parameter combination."""


class DataFormatError(CfPowerError):
    """Corrupt or incompatible dataset or model container."""


class SolverDegeneracyError(CfPowerError):
    """Optimizer failed often enough that the output cannot be trusted."""


class TrainingDivergedError(CfPowerError):
    """Loss became non-finite during training."""


class NumericalError(CfPowerError, RuntimeError):
    """A numeric consistency check failed (indefinite matrix, SINR below
    the noise floor); the inputs cannot give a trustworthy result."""
