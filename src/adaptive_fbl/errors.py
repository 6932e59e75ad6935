"""Exception types shared across the package."""


class NotPositiveDefiniteError(Exception):
    """A matrix expected to be positive definite failed its factorization."""


class NotHurwitzError(Exception):
    """The closed-loop matrix has a pole outside the open left half-plane."""


class NonFiniteValueError(Exception):
    """A model evaluation produced inf or nan."""


class StateEscapeError(Exception):
    """The simulated state left the sane operating envelope."""


class UnfittedModelError(Exception):
    """Prediction requested from a model that has never been fitted."""


class AllStartsFailedError(Exception):
    """Every hyperparameter optimization start failed."""


class ConfigError(Exception):
    """Base class for configuration problems."""


class ConfigParseError(ConfigError):
    """A config document line could not be parsed."""


class UnknownKeyError(ConfigError):
    """A config key is not one of the documented keys."""


class OutOfRangeError(ConfigError):
    """A config value violates its range constraint."""
