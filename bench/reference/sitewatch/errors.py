"""Exception types shared across the package, with process exit codes."""

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_IO = 4


class SitewatchError(Exception):
    """Base class for errors raised by this package."""

    exit_code = 1


class ConfigError(SitewatchError):
    """Invalid site, scenario, or evaluation configuration."""

    exit_code = EXIT_CONFIG


class StreamFormatError(SitewatchError):
    """Malformed perception stream or result file content."""

    exit_code = EXIT_PARSE

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no
