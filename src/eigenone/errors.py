"""What the command line needs before it runs a layer: the exceptions it maps
to exit codes and the default seed.  Imports nothing, so `import eigenone.cli`
loads no computational layer."""

DEFAULT_SEED = 0xC0FFEE


class VerificationError(RuntimeError):
    """A check that a result rests on failed: an exact division, a bound, a
    dimension count or a reconstruction.  Raised explicitly, so python -O
    keeps it; the command line reports it as an internal error (exit 3)."""


class UsageError(ValueError):
    """Command-line input names no computation this program supports: a
    missing or invalid group parameter, an n out of range, a bad prime.  The
    command line reports it as a usage error (exit 2); any other ValueError
    is an internal error (exit 3)."""


class ClosureOverflow(RuntimeError):
    """Group closure exceeded the configured element bound (exit 2)."""
