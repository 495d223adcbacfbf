"""Exception types shared across the package."""


class ChannelFormatError(ValueError):
    """Raised when a channel interchange stream is malformed."""


class ConfigurationError(ValueError):
    """Raised for invalid experiment or PHY configuration."""


class SearchSpaceError(RuntimeError):
    """Raised when an exhaustive enumeration would exceed its size cap."""
