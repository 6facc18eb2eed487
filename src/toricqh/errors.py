"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: SchemaError -> 2, PreconditionError -> 3,
VerificationError -> 4.
"""


class SchemaError(ValueError):
    """Input data violates the polyhedron or perturbation file schema, or
    the command line is malformed."""


class PreconditionError(ValueError):
    """An operation was invoked outside its stated domain."""


class VerificationError(RuntimeError):
    """A property that should hold for valid input failed to verify."""


class LatticeError(VerificationError):
    """An intersecting-sum decomposition came out non-integral.

    This signals non-Delzant input (the incident normals at some vertex do
    not form a lattice basis)."""
