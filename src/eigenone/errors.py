"""The one exception for a failed internal check."""


class VerificationError(RuntimeError):
    """A check that a result rests on failed: an exact division, a bound, a
    dimension count or a reconstruction.  Raised explicitly, so python -O
    keeps it; the command line reports it as an internal error (exit 3)."""
