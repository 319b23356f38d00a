"""primesim: deterministic multi-agent exchange simulator and impact analytics."""

__version__ = "0.1.0"
