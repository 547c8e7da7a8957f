"""Shared error types."""


class BudgetExceededError(RuntimeError):
    """A computation would exceed its configured resource budget."""


class CacheFormatError(ValueError):
    """A shell cache file is malformed.  Carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ShellCountMismatchError(ValueError):
    """A shell cache header count disagrees with the exact representation count."""


class ConfigError(ValueError):
    """An experiment config is invalid; the message names the key, reason omits it."""

    def __init__(self, key: str, reason: str):
        super().__init__(f"config key '{key}': {reason}")
        self.key = key
        self.reason = reason
