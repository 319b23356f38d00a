"""Exception types shared across the package, one per CLI exit-code class."""


class ConfigError(Exception):
    """Invalid or unusable run configuration."""


class DataError(Exception):
    """Unreadable or malformed input data."""


class NumericalError(Exception):
    """An estimator could not produce a usable result."""


class UsageError(Exception):
    """A command line that cannot be run as given."""
