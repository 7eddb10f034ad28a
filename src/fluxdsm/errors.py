"""Exception types shared across the package.

Everything user-facing derives from FluxDsmError so the CLI can map
failure kinds onto distinct exit codes without string matching.
"""


class FluxDsmError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 5


class UsageError(FluxDsmError):
    """The command line names a config file that cannot be read."""

    exit_code = 2


class ConfigError(FluxDsmError):
    """A scenario config or schedule file failed validation.

    Carries the offending line number when the problem is tied to a
    specific line of a config file (syntax errors, unknown keys, bad
    values). line is None for file-level problems.
    """

    exit_code = 4

    def __init__(self, message, line=None, path=None):
        self.line = line
        self.path = path
        prefix = ""
        if path is not None:
            prefix = f"{path}:"
            if line is not None:
                prefix += f"{line}:"
            prefix += " "
        elif line is not None:
            prefix = f"line {line}: "
        super().__init__(prefix + message)


class ConfigSyntaxError(ConfigError):
    """Malformed config text (bad section header, missing '=', ...)."""

    exit_code = 2


class UnknownKeyError(ConfigError):
    """A key or section that no scenario kind recognises."""

    exit_code = 3


class DomainError(FluxDsmError, ValueError):
    """An argument is outside the physical or numeric domain of an operation."""


class PhaseViolationError(DomainError):
    """An operation assumed the superconducting phase but the field or
    temperature puts the material in the normal phase (or vice versa)."""


class FluxLossError(FluxDsmError):
    """A coil schedule step would destroy trapped flux.

    Raised when a ring is contracted to nothing, split in two, or merged
    with another ring; all three would silently break exact flux
    bookkeeping, so the schedule is rejected instead.
    """

    def __init__(self, message, step=None):
        self.step = step
        if step is not None:
            message = f"step {step}: {message}"
        super().__init__(message)


class InstabilityError(FluxDsmError):
    """A modulator state grew past its configured bound. The message
    names the offending sample, and .sample carries its index."""

    def __init__(self, message, sample=None):
        self.sample = sample
        super().__init__(message)


class QuadratureError(FluxDsmError):
    """Numerical integration failed to converge to the requested accuracy."""

    def __init__(self, message, diagnostics=None):
        self.diagnostics = diagnostics or {}
        super().__init__(message)
