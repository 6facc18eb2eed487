"""Bundled example polyhedra and a random Delzant generator.

The JSON files under data/ are the canonical corpus used by the CLI docs and
the test suite; ``load_example`` parses them through the ordinary input
schema.  Random polyhedra are produced by truncating vertices of known
Delzant seeds (a toric blowup), which preserves the Delzant property for
small enough cuts, followed by a random unimodular relabeling of the
lattice.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from importlib import resources

from .errors import PreconditionError, SchemaError
from .linalg import random_unimodular
from .polyhedra import (DelzantPolyhedron, check_delzant, enumerate_vertices,
                        exact_parameter, integer_parameter, parse_polyhedron,
                        polyhedron, relabel_lattice)

VALID_EXAMPLES = ("c1", "c2", "c3", "cp1", "cp2", "cp3", "cp1xcp1",
                  "o_minus_1", "hirzebruch_f2")
INVALID_EXAMPLES = ("non_delzant", "vertexless")


def example_names() -> tuple[str, ...]:
    return VALID_EXAMPLES + INVALID_EXAMPLES


def load_example(name: str) -> DelzantPolyhedron:
    """The bundled example ``name``, one of ``example_names()``; any other
    name raises PreconditionError."""
    if name not in example_names():
        raise PreconditionError(f"unknown example {name!r}; known: "
                                f"{example_names()}")
    text = resources.files("toricqh").joinpath("data", f"{name}.json").read_text()
    return parse_polyhedron(json.loads(text))


def load_valid_examples() -> dict[str, DelzantPolyhedron]:
    return {name: load_example(name) for name in VALID_EXAMPLES}


def _pairing(nu, x):
    return sum(a * b for a, b in zip(nu, x))


def blow_up(P: DelzantPolyhedron, vertex_index: int,
            fraction=Fraction(1, 2)) -> DelzantPolyhedron:
    """Truncate the given vertex with the sum of its incident normals.

    The cut is placed a rational fraction of the way towards the nearest
    other vertex (or towards the origin when that is closer), so the new
    facet meets every edge at the vertex in its interior and the result is
    again Delzant with positive offsets.  ``vertex_index`` indexes
    ``enumerate_vertices(P)`` (``integer_parameter``) and ``fraction`` is
    exact (``exact_parameter``) and strictly between 0 and 1; anything else
    raises PreconditionError.
    """
    vertices = enumerate_vertices(P)
    integer_parameter(vertex_index, "vertex_index", 0, len(vertices) - 1)
    fraction = exact_parameter(fraction, "cut fraction")
    if not 0 < fraction < 1:
        raise PreconditionError(f"cut fraction must be strictly between 0 "
                                f"and 1, got {fraction}")
    v = vertices[vertex_index]
    labels = sorted(v.incident)
    nu0 = tuple(sum(P.normal(j)[i] for j in labels) for i in range(P.dim))
    a = _pairing(nu0, v.point)
    others = [_pairing(nu0, w.point) for w in vertices if w.point != v.point]
    upper = min(others + [Fraction(0)])
    assert a < upper
    cut = a + fraction * (upper - a)
    facets = list(zip(P.normals, P.offsets)) + [(nu0, -cut)]
    return polyhedron(P.dim, facets)


_SEEDS = {
    "simplex": lambda n: [(tuple(1 if i == j else 0 for i in range(n)), 1)
                          for j in range(n)] + [((-1,) * n, 1)],
    "cube": lambda n: [(tuple(s if i == j else 0 for i in range(n)), 1)
                       for j in range(n) for s in (1, -1)],
    "orthant": lambda n: [(tuple(1 if i == j else 0 for i in range(n)), 1)
                          for j in range(n)],
}


def random_delzant(rng: random.Random, dim: int, max_facets: int,
                   allow_noncompact: bool = True) -> DelzantPolyhedron:
    """A random Delzant polyhedron: a seed shape (a simplex, a cube or an
    orthant, as ``allow_noncompact`` permits) with n + 1, 2n or n facets,
    then random vertex cuts, each adding one facet, made only while it has
    fewer than ``max_facets`` facets.  So ``max_facets`` bounds the cuts,
    not the seed: ``random_delzant(Random(1), 2, 1)`` is a triangle.
    PreconditionError unless ``rng`` is a ``random.Random``, ``dim`` an
    integer at least 1 and ``max_facets`` one at least 0."""
    if not isinstance(rng, random.Random):
        raise PreconditionError(f"rng must be a random.Random, got {rng!r}")
    integer_parameter(dim, "dim", 1)
    integer_parameter(max_facets, "max_facets", 0)
    kinds = list(_SEEDS) if allow_noncompact else ["simplex", "cube"]
    kind = rng.choice(kinds)
    scale = Fraction(rng.randrange(1, 4), rng.randrange(1, 3))
    facets = [(nu, lam * scale) for nu, lam in _SEEDS[kind](dim)]
    P = polyhedron(dim, facets)
    while P.nfacets < max_facets and rng.random() < 0.7:
        idx = rng.randrange(len(enumerate_vertices(P)))
        frac = Fraction(1, rng.randrange(2, 5))
        try:
            P = blow_up(P, idx, frac)
        except SchemaError:
            # The truncating facet collided with an existing one; skip.
            break
    U = random_unimodular(dim, rng)
    P = relabel_lattice(P, U)
    report = check_delzant(P)
    assert report.passed, report.violations
    return P
