"""eigenone: exact verification of eigenvalue-1 (unisingularity) properties of
symmetric-group Specht modules and mod-2 symplectic permutation representations."""

__version__ = "0.1.0"
