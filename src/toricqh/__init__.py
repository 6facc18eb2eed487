"""Exact classical and quantum cohomology presentations of toric varieties.

The input is a Delzant polyhedron (primitive integer facet normals, positive
rational offsets).  All arithmetic is exact: integers, rationals and finite
prime fields only.

``toricqh.catalog`` (the example corpus and random inputs) is imported on
first use, so that importing the package, or the command line, does not
load it and ``importlib.resources``.
"""

from .errors import (LatticeError, PreconditionError, SchemaError,
                     VerificationError)
from .jacobian import JacobianReport, jacobian_freeness
from .monoid import (ConeMonoid, FilteredElement, HeightMonoid, Monomial,
                     build_height_monoid, cone_membership,
                     enumerate_gamma_degree, filtered_from_json,
                     filtered_to_json, gamma_membership, gamma_r_membership,
                     height, intersecting_sum, log_derivative_generators,
                     monoid_for, monotone_gamma_membership, multiply, theta,
                     truncate)
from .polyhedra import (DelzantPolyhedron, Vertex, check_delzant,
                        check_vertex_and_splitting, enumerate_vertices,
                        facet_intersection_nonempty, is_compact,
                        minimal_nonfaces, monotone_normalization,
                        parse_polyhedron, polyhedron, polyhedron_to_json)
from .presentation import (QuantumPresentation, RingPresentation, apply_bfield,
                           basis_independence_audit, classical_presentation,
                           divisor_inverse_certificate, kodaira_spencer_table,
                           quantum_presentation, quantum_sr_relations,
                           reduce_to_basis)
from .topology import (NerveComplex, build_nerve, link, reduced_homology,
                       regular_sequence_check, reisner_cm_check,
                       sphere_or_ball_profile, sr_hilbert_function)

__version__ = "0.1.0"


def __getattr__(name):
    """``toricqh.catalog``, imported on first access (PEP 562)."""
    if name == "catalog":
        import importlib
        return importlib.import_module(".catalog", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
