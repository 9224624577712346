"""eigenone: exact verification of eigenvalue-1 (unisingularity) properties of
symmetric-group Specht modules and mod-2 symplectic permutation representations."""

__version__ = "0.1.0"

from .perms import IndexedGroup, Partition, PermGroup, Permutation, builtin_group  # noqa: E402,F401
from .audit import audit_specht, conjecture_table, subgroup_census  # noqa: E402,F401
from .fixed_vectors import build_fixed_vector  # noqa: E402,F401
