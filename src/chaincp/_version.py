"""Single source for the version string; pyproject.toml reads it from here."""

__version__ = "0.1.0"
