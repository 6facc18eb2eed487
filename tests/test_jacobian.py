import collections
import copy
import json
import random
from dataclasses import replace
from fractions import Fraction
from importlib import resources
from math import lcm
from operator import add, mul, sub
from types import SimpleNamespace

import pytest

import reference
from toricqh import catalog, cli, jacobian, linalg, topology
from toricqh import monoid as mo
from toricqh import presentation as pr
from toricqh.errors import (PreconditionError, SchemaError,
                            VerificationError)
from toricqh.jacobian import jacobian_freeness
from toricqh.monoid import scaled
from toricqh.polyhedra import (enumerate_vertices,
                               facet_intersection_nonempty, polyhedron,
                               vertex_coordinates)


def test_zero_perturbations_o_minus_1(o_minus_1):
    rep = jacobian_freeness(o_minus_1, g=3)
    assert rep.free
    assert rep.dim_r == 3
    assert rep.rank == 2
    assert rep.dim_quotient == 6


INEXACT_PARAMETERS = {
    "jacobian_g_float": lambda P: jacobian_freeness(P, g=0.1),
    "jacobian_g_bool": lambda P: jacobian_freeness(P, g=True),
    "jacobian_rho_float": lambda P: jacobian_freeness(P, rho=(0.1, 1)),
    "jacobian_rho_bool": lambda P: jacobian_freeness(P, rho=(1, True)),
    "bfield_rho_float": lambda P: pr.apply_bfield(P, (0.5, 1)),
    "bfield_rho_bool": lambda P: pr.apply_bfield(P, (False, 1)),
    "height_monoid_g_float": lambda P: mo.build_height_monoid(P, [], 1.5),
    "height_monoid_g_bool": lambda P: mo.build_height_monoid(P, [], True),
    "height_monoid_extra_float":
        lambda P: mo.build_height_monoid(P, [0.5], 2),
    "height_monoid_extra_bool":
        lambda P: mo.build_height_monoid(P, [True], 2),
    "truncate_g_float": lambda P: mo.truncate(mo.monoid_for(P).zero(), 0.5),
    "truncate_g_bool": lambda P: mo.truncate(mo.monoid_for(P).zero(), True),
    "from_exponents_height_float":
        lambda P: mo.monoid_for(P).from_exponents((1, 0), height=1.5),
}


@pytest.mark.parametrize("name", sorted(INEXACT_PARAMETERS))
def test_inexact_parameters_rejected(name, cp1):
    # a float would be taken as its binary fraction and a bool as 0 or 1
    with pytest.raises(PreconditionError, match="must be exact"):
        INEXACT_PARAMETERS[name](cp1)


NON_INTEGER_PARAMETERS = {
    "divisor_j_float": lambda P: pr.divisor_inverse_certificate(P, 1.0),
    "divisor_j_string": lambda P: pr.divisor_inverse_certificate(P, "1"),
    "divisor_j_bool": lambda P: pr.divisor_inverse_certificate(P, True),
    "quantum_margin_float": lambda P: pr.quantum_presentation(P, margin=1.0),
    "quantum_margin_bool": lambda P: pr.quantum_presentation(P, margin=True),
    "quantum_margin_negative": lambda P: pr.quantum_presentation(P, margin=-1),
    "regseq_maxdeg_float": lambda P: topology.regular_sequence_check(
        P, maxdeg=2.0),
    "regseq_maxdeg_bool": lambda P: topology.regular_sequence_check(
        P, maxdeg=True),
    "hilbert_maxdeg_float": lambda P: topology.sr_hilbert_function(P, 1.5),
    "hilbert_maxdeg_string": lambda P: topology.sr_hilbert_function(P, "2"),
    "hilbert_maxdeg_bool": lambda P: topology.sr_hilbert_function(P, True),
    "gamma_degree_float": lambda P: mo.enumerate_gamma_degree(P, 1.5),
    "audit_trials_float":
        lambda P: pr.basis_independence_audit(P, trials=1.5),
    "audit_trials_zero": lambda P: pr.basis_independence_audit(P, trials=0),
    "audit_trials_negative":
        lambda P: pr.basis_independence_audit(P, trials=-1),
    "audit_seed_float": lambda P: pr.basis_independence_audit(P, seed=1.5),
    "audit_seed_string": lambda P: pr.basis_independence_audit(P, seed="x"),
    "audit_seed_bool": lambda P: pr.basis_independence_audit(P, seed=True),
    "audit_seed_negative": lambda P: pr.basis_independence_audit(P, seed=-1),
    "from_exponents_too_few": lambda P: mo.monoid_for(P).from_exponents((1,)),
    "from_exponents_too_many":
        lambda P: mo.monoid_for(P).from_exponents((1, 0, 0, 5)),
    "from_exponents_float":
        lambda P: mo.monoid_for(P).from_exponents((1.5, 0, 0)),
}


@pytest.mark.parametrize("name", sorted(NON_INTEGER_PARAMETERS))
def test_non_integer_parameters_rejected(name, cp2):
    # a bool would count as 0 or 1 and share that value's cached result
    pr.quantum_presentation(cp2, margin=1)
    with pytest.raises(PreconditionError, match="integer"):
        NON_INTEGER_PARAMETERS[name](cp2)


MALFORMED_PARAMETERS = {
    "bfield_string": (lambda P: pr.apply_bfield(P, ("abc", 1, 1)),
                      "B-field entry"),
    "quantum_rho_string": (
        lambda P: pr.quantum_presentation(P, _rho=("x", 1, 1)),
        "B-field entry"),
    "cutoff_zero_denominator": (lambda P: jacobian_freeness(P, g="1/0"),
                                "cutoff"),
    "cutoff_string": (lambda P: jacobian_freeness(P, g="abc"), "cutoff"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_PARAMETERS))
def test_malformed_exact_parameters_rejected(name, cp2):
    # a string that Fraction cannot read names the parameter, as a float does
    call, what = MALFORMED_PARAMETERS[name]
    with pytest.raises(PreconditionError, match=f"^{what} must be exact"):
        call(cp2)


def _twin_monoid():
    """The monoid of a cp2 built separately: value-equal to the fixture's,
    yet a context of its own."""
    return mo.monoid_for(catalog.load_example("cp2"))


def _unit(ctx, lam=1):
    return mo.element_from_monomial(ctx.t_power(lam))


def _planted(x, c):
    """x with the coefficient of each term set to ``c`` after construction,
    past the constructor's checks: ``terms`` is a plain dict."""
    for m in x.terms:
        x.terms[m] = c
    return x


TERM = {"lambda": "1", "nu": [0, 0], "coeff": "1"}


def _coords(P, k, nu=None):
    """``monomial_coords`` at T-degree k of P's quantum presentation, by
    default at the first normal: T-degree 1 and up."""
    Q = pr.quantum_presentation(P)
    return Q.monomial_coords(k, Q.normalized.normals[0] if nu is None else nu)
# Library preconditions on cp2, each with the error it raises and its
# message.
LIBRARY_PRECONDITIONS = {
    "jacobian_too_few_perturbations": (
        lambda P: jacobian_freeness(P, perturbations=[mo.monoid_for(P).zero()]
                                    * (P.nfacets - 1)),
        PreconditionError, "expected 3 perturbations"),
    "jacobian_perturbation_over_a_twin": (
        lambda P: jacobian_freeness(P, perturbations=[
            _unit(_twin_monoid())] + [mo.monoid_for(P).zero()] * 2),
        PreconditionError, "this polyhedron's monoid"),
    "reduce_over_a_twin": (
        lambda P: pr.reduce_to_basis(_unit(_twin_monoid()),
                                     pr.quantum_presentation(P)),
        PreconditionError, "normalized monotone monoid"),
    "reduce_fractional_t_weight": (
        lambda P: pr.reduce_to_basis(
            _unit(mo.monoid_for(pr.quantum_presentation(P).normalized), "3/2"),
            pr.quantum_presentation(P)),
        PreconditionError, "non-integral T-weight 3/2"),
    "cone_monoid_vertexless": (
        lambda P: mo.ConeMonoid(catalog.load_example("vertexless")),
        PreconditionError, "no vertex"),
    "t_power_negative": (lambda P: mo.monoid_for(P).t_power(-1),
                         PreconditionError, "negative T-exponents"),
    "multiply_across_monoids": (
        lambda P: mo.multiply(mo.monoid_for(P).zero(),
                              _twin_monoid().zero()),
        PreconditionError, "different monoid contexts"),
    "truncate_zero": (lambda P: mo.truncate(mo.monoid_for(P).zero(), 0),
                      PreconditionError, "must be positive"),
    "height_monoid_zero_cutoff": (
        lambda P: mo.build_height_monoid(P, [], 0),
        PreconditionError, "must be positive"),
    "filtered_from_a_dict": (
        lambda P: mo.filtered_from_json(mo.monoid_for(P), {}),
        SchemaError, "must be a list of terms"),
    "filtered_repeated_monomial": (
        lambda P: mo.filtered_from_json(mo.monoid_for(P), [TERM, TERM]),
        SchemaError, "duplicate monomial"),
    "monotone_membership_unnormalized": (
        lambda P: mo.monotone_gamma_membership(
            catalog.load_example("hirzebruch_f2"), (1, (0, 0))),
        PreconditionError, "offsets equal to 1"),
    "decompose_below_the_cone": (
        lambda P: mo.monoid_for(P).decompose((-5, (0, 0))),
        PreconditionError, "not in the cone"),
    "field_named_by_digits": (lambda P: topology.field_name("7"),
                              PreconditionError, "not a prime"),
    "blow_up_past_the_last_vertex": (
        lambda P: catalog.blow_up(P, 5),
        PreconditionError, r"vertex_index must be an integer in 0\.\.2"),
    "blow_up_negative_vertex": (
        lambda P: catalog.blow_up(P, -1),
        PreconditionError, r"vertex_index must be an integer in 0\.\.2"),
    "blow_up_bool_vertex": (
        lambda P: catalog.blow_up(P, True),
        PreconditionError, r"vertex_index must be an integer in 0\.\.2"),
    "blow_up_float_fraction": (
        lambda P: catalog.blow_up(P, 0, 0.5),
        PreconditionError, "cut fraction must be exact"),
    "blow_up_fraction_past_one": (
        lambda P: catalog.blow_up(P, 0, "3/2"),
        PreconditionError, "strictly between 0 and 1"),
    "load_unknown_example": (lambda P: catalog.load_example("bogus"),
                             PreconditionError, "unknown example 'bogus'"),
    "coords_negative_t_degree": (
        lambda P: _coords(P, -1),
        PreconditionError, r"T-degree must be an integer in 0\.\.4, got -1"),
    "coords_past_the_bound": (
        lambda P: _coords(P, 9),
        PreconditionError, r"T-degree must be an integer in 0\.\.4, got 9"),
    "coords_bool_t_degree": (
        lambda P: _coords(P, True),
        PreconditionError, r"T-degree must be an integer in 0\.\.4, got True"),
    "coords_below_the_slice": (
        lambda P: _coords(P, 0),
        PreconditionError, r"no monomial of T-degree 0 has lattice part"),
    "coords_outside_the_key_windows": (
        lambda P: _coords(P, 4, (50, -50)),
        PreconditionError, r"no monomial of T-degree 4 has lattice part"),
    "coords_short_lattice_part": (
        lambda P: _coords(P, 2, (1,)),
        PreconditionError, "nu must be 2 integers"),
    "coords_float_coefficient": (
        lambda P: pr.quantum_presentation(P).monomial_coords(
            1, pr.quantum_presentation(P).normalized.normals[0], 1.5),
        PreconditionError, "coefficient must be exact"),
    "jacobian_perturbations_not_a_list": (
        lambda P: jacobian_freeness(P, perturbations=5),
        PreconditionError, "perturbations must be a list of 3 filtered"),
    "jacobian_rho_not_a_list": (
        lambda P: jacobian_freeness(P, rho=5),
        PreconditionError, "the B-field must be 3 units, got 5"),
    "jacobian_float_perturbation_coefficient": (
        lambda P: jacobian_freeness(P, perturbations=[
            _planted(_unit(mo.monoid_for(P)), 1.5)]
            + [mo.monoid_for(P).zero()] * 2),
        PreconditionError, "perturbation 1 has the coefficient 1.5, which is "
                           "not exact"),
    "filtered_float_coefficient": (
        lambda P: mo.FilteredElement(mo.monoid_for(P),
                                     {mo.monoid_for(P).one(): 1.5}),
        PreconditionError, "the coefficient 1.5 is not exact"),
    "filtered_string_coefficient": (
        lambda P: mo.FilteredElement(mo.monoid_for(P),
                                     {mo.monoid_for(P).one(): "abc"}),
        PreconditionError, "the coefficient 'abc' is not exact"),
    "filtered_int_key": (
        lambda P: mo.FilteredElement(mo.monoid_for(P), {5: 1}),
        PreconditionError, "the term 5 is not a monomial of this monoid"),
    "filtered_key_of_a_twin": (
        lambda P: mo.FilteredElement(mo.monoid_for(P),
                                     {_twin_monoid().one(): 1}),
        PreconditionError, "is not a monomial of this monoid"),
    "add_across_monoids": (
        lambda P: _unit(mo.monoid_for(P), 0) + _unit(_twin_monoid()),
        PreconditionError, "different monoid contexts"),
    "subtract_across_monoids": (
        lambda P: _unit(mo.monoid_for(P), 0) - _unit(_twin_monoid()),
        PreconditionError, "different monoid contexts"),
    "times_across_monoids": (
        lambda P: _unit(mo.monoid_for(P), 0) * _unit(_twin_monoid()),
        PreconditionError, "different monoid contexts"),
    "filtered_repeated_monomial_after_a_zero": (
        lambda P: mo.filtered_from_json(mo.monoid_for(P),
                                        [{**TERM, "coeff": "0"}, TERM]),
        SchemaError, "duplicate monomial"),
    "facet_intersection_labels_not_a_collection": (
        lambda P: facet_intersection_nonempty(P, 5),
        PreconditionError, "facet labels must be a collection of ints, got 5"),
    "link_of_a_non_collection": (
        lambda P: topology.link(topology.build_nerve(P), 5),
        PreconditionError, "a face must be a collection of labels, got 5"),
    "element_float_coefficient": (
        lambda P: mo.monoid_for(P).element({mo.monoid_for(P).one(): 1.5}),
        PreconditionError, "coefficient must be exact"),
    "height_monoid_extra_not_a_list": (
        lambda P: mo.build_height_monoid(P, 5, 1),
        PreconditionError, "extra heights must be a list"),
    "contains_not_a_pair": (
        lambda P: mo.monoid_for(P).contains(5),
        PreconditionError, r"a cone element is a pair \(lam, nu\), got 5"),
    "jacobian_int_perturbations": (
        lambda P: jacobian_freeness(P, perturbations=[1, 2, 3]),
        PreconditionError, "perturbation 1 must be a filtered element"),
    "random_delzant_dim_zero": (
        lambda P: catalog.random_delzant(random.Random(0), 0, 5),
        PreconditionError, "dim must be an integer at least 1, got 0"),
    "random_delzant_bool_dim": (
        lambda P: catalog.random_delzant(random.Random(0), True, 5),
        PreconditionError, "dim must be an integer at least 1, got True"),
    "random_delzant_float_dim": (
        lambda P: catalog.random_delzant(random.Random(0), 1.5, 5),
        PreconditionError, "dim must be an integer at least 1, got 1.5"),
    "random_delzant_string_max_facets": (
        lambda P: catalog.random_delzant(random.Random(0), 2, "x"),
        PreconditionError, "max_facets must be an integer at least 0"),
    "random_delzant_without_rng": (
        lambda P: catalog.random_delzant(None, 2, 5),
        PreconditionError, "rng must be a random.Random, got None"),
    "rank_over_four": (lambda P: linalg.rank([[1, 2], [3, 4]], 4),
                       PreconditionError, "field size 4 is not a prime"),
    "rank_over_one": (lambda P: linalg.rank([[1, 2], [3, 4]], 1),
                      PreconditionError, "field size 1 is not a prime"),
    "integral_eliminator_with_a_prime": (
        lambda P: linalg.Eliminator(p=7, integral=True),
        PreconditionError, "over Z takes no field size, got 7"),
}


@pytest.mark.parametrize("name", sorted(LIBRARY_PRECONDITIONS))
def test_library_preconditions_raise(name, cp2):
    call, error, match = LIBRARY_PRECONDITIONS[name]
    with pytest.raises(error, match=match):
        call(cp2)


def test_exact_parameters_accepted(cp1):
    reports = [jacobian_freeness(cp1, g=g, rho=rho) for g, rho in
               [(1, (1, 1)), (Fraction(1), (Fraction(1), 1)), ("1", ("1", 1))]]
    assert reports[0] == reports[1] == reports[2]
    assert mo.build_height_monoid(cp1, ["1/2"], "2").cutoff == 2


def test_tiny_cutoff_reduces_to_classical(corpus):
    # below every positive admissible height the coefficient ring is the
    # ground field and the quotient is the classical cohomology
    for name in ("cp1", "cp2", "o_minus_1", "hirzebruch_f2", "c2"):
        P = corpus[name]
        rep = jacobian_freeness(P, g=Fraction(1, 100))
        assert rep.free, name
        assert rep.dim_r == 1
        assert rep.dim_quotient == len(enumerate_vertices(P))


def test_spec_perturbation_example(o_minus_1):
    ctx = mo.monoid_for(o_minus_1)
    pert = mo.element_from_monomial(ctx.monomial(Fraction(5, 2), (2, 2)))
    rep = jacobian_freeness(
        o_minus_1, perturbations=[ctx.zero(), pert, ctx.zero()], g=2)
    assert rep.free
    assert rep.rank == 2
    assert Fraction(1, 2) in rep.levels
    assert rep.dim_quotient == rep.rank * rep.dim_r


def test_perturbation_height_must_be_positive(o_minus_1):
    ctx = mo.monoid_for(o_minus_1)
    flat = mo.element_from_monomial(ctx.generator(1))  # height zero
    with pytest.raises(PreconditionError, match="height"):
        jacobian_freeness(o_minus_1, perturbations=[flat, ctx.zero(),
                                                    ctx.zero()], g=1)


def test_invalid_cutoff(o_minus_1):
    with pytest.raises(PreconditionError):
        jacobian_freeness(o_minus_1, g=0)


def test_bfield_units(o_minus_1):
    for rho in ([1, 1, 1], [-1, 1, -1], [2, 1, Fraction(1, 3)]):
        rep = jacobian_freeness(o_minus_1, rho=rho, g=2)
        assert rep.free, rho


def test_field_f2(o_minus_1, cp2):
    for P in (o_minus_1, cp2):
        rep = jacobian_freeness(P, g=2, p=2)
        assert rep.free
        assert rep.field == "F2"


def test_matches_quantum_truncation(corpus):
    # for monotone examples the quotient dimension is the quantum basis size
    # times the number of admissible T-powers below the cutoff
    from toricqh.presentation import quantum_presentation
    for name in ("cp1", "cp2", "cp1xcp1", "o_minus_1", "c2"):
        P = corpus[name]
        Q = quantum_presentation(P)
        for g in (1, 2, 3):
            rep = jacobian_freeness(P, g=g)
            assert rep.free, (name, g)
            assert rep.dim_quotient == len(Q.basis) * rep.dim_r, (name, g)


def test_random_admissible_perturbations(corpus):
    rng = random.Random(314)
    for name in ("o_minus_1", "cp1", "cp2"):
        P = corpus[name]
        ctx = mo.monoid_for(P)
        for _ in range(5):
            perts = []
            for _ in range(P.nfacets):
                if rng.random() < 0.5:
                    perts.append(ctx.zero())
                    continue
                t = [rng.randrange(0, 2) for _ in range(P.nfacets)]
                m = ctx.from_exponents(t, height=rng.randrange(1, 3))
                coeff = Fraction(rng.randrange(1, 6), rng.randrange(1, 4))
                perts.append(mo.element_from_monomial(m) * coeff)
            rep = jacobian_freeness(P, perturbations=perts, g=2)
            assert rep.free, (name, [str(p) for p in perts])


def test_nonmonotone_offsets(corpus):
    rep = jacobian_freeness(corpus["hirzebruch_f2"], g=2)
    assert rep.free
    assert rep.rank == 4
    assert rep.dim_quotient == rep.rank * rep.dim_r


def test_perturbed_nonmonotone(corpus):
    # unequal offsets plus perturbations: the hardest truncation path
    P = corpus["hirzebruch_f2"]
    ctx = mo.monoid_for(P)
    rng = random.Random(8)
    for _ in range(3):
        perts = []
        for _ in range(P.nfacets):
            t = [0] * P.nfacets
            t[rng.randrange(P.nfacets)] += 1
            m = ctx.from_exponents(t, height=rng.randrange(1, 3))
            perts.append(mo.element_from_monomial(m) * Fraction(1, 2))
        rep = jacobian_freeness(P, perturbations=perts, g=2)
        assert rep.free
        assert rep.dim_quotient == rep.rank * rep.dim_r


def test_multi_term_fractional_perturbation(corpus):
    # two fractional heights in one perturbation, another on a second facet
    P = corpus["hirzebruch_f2"]
    ctx = mo.monoid_for(P)
    p1 = mo.element_from_monomial(
        ctx.from_exponents((1, 0, 0, 0), height=Fraction(3, 2))) * Fraction(2, 3) \
        + mo.element_from_monomial(
            ctx.from_exponents((0, 0, 0, 2), height=Fraction(1, 2))) * Fraction(-1, 2)
    p4 = mo.element_from_monomial(ctx.from_exponents((0, 1, 0, 1), height=1))
    rep = jacobian_freeness(P, perturbations=[p1, ctx.zero(), ctx.zero(), p4],
                            g=2)
    assert rep.free
    assert rep.levels == (0, Fraction(1, 2), 1, Fraction(3, 2))
    assert rep.dim_quotient == rep.rank * rep.dim_r == 16


def test_escalation_path_hirzebruch_f2(corpus):
    # the first slice does not close at g = 3; one escalation confirms
    rep = jacobian_freeness(corpus["hirzebruch_f2"], g=3)
    assert rep.escalations == 1
    assert rep.weight_cap == 20
    assert rep.dim_quotient == 12
    assert rep.free


def test_rational_and_prime_field_agree(corpus):
    units = (2, -1, Fraction(1, 3), 1, Fraction(-3, 2))
    for name, P in corpus.items():
        rho = [units[j % len(units)] for j in range(P.nfacets)]
        over_q = jacobian_freeness(P, rho=rho, g=2)
        over_p = jacobian_freeness(P, rho=rho, g=2, p=32003)
        assert over_p.field == "F32003"
        assert (over_q.dim_s, over_q.dim_quotient, over_q.free) == \
            (over_p.dim_s, over_p.dim_quotient, over_p.free), name


SKEWED = [
    ("cp2", (1, 1, 3), ((48, 3, True, 1), (61, 3, True, 1))),
    ("cp1xcp1", (1, 4, 1, 4), ((72, 4, True, 1), (87, 4, True, 1))),
    ("hirzebruch_f2", (1, 1, Fraction(5, 2), 1),
     ((59, 4, True, 1), (122, 8, True, 1))),
]


@pytest.mark.parametrize("name, offsets, expected", SKEWED)
def test_skewed_offsets_slices(corpus, name, offsets, expected):
    # (dim_s, dim_quotient, free, escalations) at g = 1 and g = 2 on offsets
    # far apart, where the slice reaches Stanley-Reisner monomials of high
    # degree in the light generators
    base = corpus[name]
    P = polyhedron(base.dim, list(zip(base.normals, offsets)))
    for g, want in zip((1, 2), expected):
        rep = jacobian_freeness(P, g=g)
        assert (rep.dim_s, rep.dim_quotient, rep.free, rep.escalations) == \
            want, g


def _definition_relations(P, rho, perturbations):
    """The n components of sum_j nu_j * (rho_j v_j + perturbation_j)."""
    ctx = mo.monoid_for(P)
    rho = rho or (1,) * P.nfacets
    perturbations = perturbations or [ctx.zero()] * P.nfacets
    relations = []
    for i in range(P.dim):
        rel = ctx.zero()
        for j, nu in enumerate(P.normals):
            if nu[i]:
                hj = mo.element_from_monomial(ctx.generator(j + 1)) \
                    * Fraction(rho[j]) + perturbations[j]
                rel = rel + hj * nu[i]
        relations.append(rel)
    return relations


def _fractions(set_up):
    """(g, inner window, caps, levels) of a slice's set-up as Fractions."""
    D = set_up.scale
    return (Fraction(set_up.g, D), Fraction(set_up.inner, D),
            [Fraction(c, D) for c in set_up.caps],
            tuple(Fraction(h, D) for h in set_up.levels))


def _reference_attempt(P, ctx, levels, g, relations, cap, inner_cap, basis,
                       p):
    """Every row rel_i * m with w(m) <= w_max, the slice from the
    degree-by-degree Stanley-Reisner enumeration filtered by weight.
    Returns (dim_s, dim_quotient, independent), the rank of the relation
    rows and their number."""
    nerve = topology.build_nerve(P)
    rel_weight = max((mm.lam for rel in relations for mm in rel.terms),
                     default=Fraction(0))
    scale = lcm(ctx.scale, g.denominator, cap.denominator,
                inner_cap.denominator, *(x.denominator for x in levels),
                *(mm.lam.denominator for rel in relations for mm in rel.terms))
    k = scale // ctx.scale

    def carry(w, nu):
        return w, nu, [w + k * x for x in ctx.pairings(nu)]

    weights = [k * w for w in ctx.scaled_offsets]
    columns = list(zip(*P.normals))

    def key(t):
        return carry(sum(map(mul, t, weights)),
                     tuple(sum(map(mul, t, col)) for col in columns))

    cap_s = scaled(cap, scale)
    heights = [scaled(gamma, scale) for gamma in levels]
    monomials = []
    units = [tuple(int(i == j) for i in range(P.nfacets))
             for j in range(P.nfacets)]
    code = topology.SRKeys(units, cap_s // min(weights))
    for keyed in topology.sr_slices(nerve, code):
        for t in map(code.decode, keyed):
            w, nu, th = key(t)
            assert min(th) == 0
            for h in heights:
                if w + h <= cap_s:
                    monomials.append((h, w + h, nu, [x + h for x in th]))
    monomials.sort(key=lambda x: x[:3])
    index = {(w, nu): i for i, (_, w, nu, _) in enumerate(monomials)}
    assert len(index) == len(monomials)

    g_s = scaled(g, scale)
    w_max = scaled(cap - rel_weight, scale)
    elim = linalg.Eliminator(p)
    built = 0
    for rel in relations:
        terms = [(*carry(scaled(mm.lam, scale), mm.nu), c)
                 for mm, c in rel.terms.items()]
        for _, w, nu, th in monomials:
            if w > w_max:
                continue
            row = {}
            for w1, nu1, th1, c in terms:
                if min(map(add, th, th1)) < g_s:
                    col = index[(w + w1, tuple(map(add, nu, nu1)))]
                    row[col] = row.get(col, 0) + c
            row = {col: c for col, c in row.items() if c}
            if row:
                elim.add_row(linalg.normalize(row, p))
                built += 1

    inner_w = scaled(inner_cap, scale)
    inner = [i for i, (_, w, _, _) in enumerate(monomials) if w <= inner_w]
    window = copy.deepcopy(elim)
    dim_quotient = sum(window.add_row({i: 1}) for i in inner)
    keys = [(w + h, nu) for h in heights for w, nu, _ in map(key, basis)]
    with_basis = copy.deepcopy(elim)
    independent = all(with_basis.add_row({index[c]: 1}) for c in keys)
    return (len(inner), dim_quotient, independent), elim.rank, built


def _against_every_row(monkeypatch, P, g, rho=None, perturbations=None,
                       p=None):
    """Run ``jacobian_freeness`` with its slice checked, at every cap it
    grows to, against ``_reference_attempt`` on the relations as defined:
    the same (dim_s, dim_quotient, independent) and the same rank of the
    relation rows.  Returns the report, the relation rows that reached the
    eliminator and the reference's rows summed over the caps."""
    original = _definition_relations(P, rho, perturbations)
    rows = [0, 0]

    class Counting(linalg.Eliminator):  # patched into jacobian only
        def add_row(self, row):
            rows[0] += 1
            return super().add_row(row)

    class Checked(jacobian._Slice):
        def __init__(self, *args):
            super().__init__(*args)
            self.args = args

        def grow(self, cap):
            got = super().grow(cap)
            P_, ctx, set_up, basis, p_ = self.args
            g_, inner_cap, _, levels = _fractions(set_up)
            want, rank, built = _reference_attempt(
                P_, ctx, levels, g_, original, Fraction(cap, set_up.scale),
                inner_cap, basis, p_)
            assert got == want, (cap, got, want)
            assert self.elim.rank == rank, cap
            rows[1] += built
            return got

    with monkeypatch.context() as patch:
        patch.setattr(jacobian, "_Slice", Checked)
        patch.setattr(jacobian, "linalg", SimpleNamespace(
            Eliminator=Counting, normalize=linalg.normalize))
        report = jacobian_freeness(P, perturbations=perturbations, rho=rho,
                                   g=g, p=p)
    return report, rows[0], rows[1]


def _random_perturbations(P, rng):
    ctx = mo.monoid_for(P)
    perts = []
    for _ in range(P.nfacets):
        if rng.random() < 0.5:
            perts.append(ctx.zero())
            continue
        t = [0] * P.nfacets
        for _ in range(rng.randrange(1, 3)):
            t[rng.randrange(P.nfacets)] += 1
        m = ctx.from_exponents(t, height=rng.randrange(1, 3))
        coeff = Fraction(rng.randrange(-5, 6) or 1, rng.randrange(1, 4))
        perts.append(mo.element_from_monomial(m) * coeff)
    return perts


def test_koszul_rows_match_every_row_on_the_corpus(corpus, monkeypatch):
    skipped = {}
    for name, P in corpus.items():
        for g in (1, 2, 3):
            _, fast, full = _against_every_row(monkeypatch, P, g)
            assert fast <= full, (name, g)
            skipped[name, g] = full - fast
    # the skip fires wherever a first-vertex facet can divide a monomial
    # inside the window
    assert all(skipped[name, 3] > 0 for name in ("cp2", "cp3", "cp1xcp1",
                                                 "hirzebruch_f2"))


def test_koszul_rows_match_every_row_perturbed(corpus, monkeypatch):
    rng = random.Random(4242)
    for name in ("o_minus_1", "cp1", "cp2", "cp1xcp1", "hirzebruch_f2",
                 "c2"):
        P = corpus[name]
        for _ in range(3):
            perts = _random_perturbations(P, rng)
            g = rng.choice((2, 3))
            _against_every_row(monkeypatch, P, g, perturbations=perts)


def test_koszul_rows_match_every_row_bfields(corpus, monkeypatch):
    rng = random.Random(77)
    units = (1, -1, 2, Fraction(1, 3))
    for name, P in corpus.items():
        rho = [rng.choice(units) for _ in range(P.nfacets)]
        _against_every_row(monkeypatch, P, 2, rho=rho)


def test_koszul_rows_match_every_row_mod_p(corpus, monkeypatch):
    rng = random.Random(5)
    for name in ("o_minus_1", "cp2", "cp1xcp1", "hirzebruch_f2", "c3"):
        P = corpus[name]
        for p in (2, 1000003):
            _against_every_row(monkeypatch, P, 2, p=p)
        perts = _random_perturbations(P, rng)
        rho = [rng.choice((1, -1, 2, Fraction(1, 3)))
               for _ in range(P.nfacets)]
        _against_every_row(monkeypatch, P, 3, rho=rho, perturbations=perts,
                           p=1000003)


def _recorded_rows(monkeypatch, P, g, perturbations=None, p=None):
    """Run ``jacobian_freeness`` and return, per growth step of its slice,
    the slice, the cap, the relation rows in the order they reached
    ``add_row`` and the step's result."""
    steps = []

    class Recording(linalg.Eliminator):
        def add_row(self, row):
            steps[-1][2].append(dict(row))
            return super().add_row(row)

    class Recorded(jacobian._Slice):
        def __init__(self, *args):
            super().__init__(*args)
            self.args = args

        def grow(self, cap):
            steps.append([self, cap, []])
            steps[-1].append(super().grow(cap))
            return steps[-1][3]

    with monkeypatch.context() as patch:
        patch.setattr(jacobian, "_Slice", Recorded)
        patch.setattr(jacobian, "linalg", SimpleNamespace(
            Eliminator=Recording, normalize=linalg.normalize))
        jacobian_freeness(P, perturbations=perturbations, g=g, p=p)
    return steps


def _slice_monomials(P, ctx, set_up, cap_s, basis):
    """The slice monomials T^gamma * v^t of T-weight at most ``cap_s`` as
    (region, theta_{v0}, lam, nu), lam, ``cap_s`` and the set-up's levels
    and inner window scaled by its L: region 0 outside the inner window, 1
    inside it and 2 the basis columns T^gamma * e_i, all of which must be
    in the slice."""
    k = set_up.scale // ctx.scale
    weights = [k * w for w in ctx.scaled_offsets]
    inner_w, heights = set_up.inner, set_up.levels

    def vector(t, h):
        return (sum(map(mul, t, weights)) + h,
                tuple(sum(map(mul, t, col)) for col in zip(*P.normals)))

    shifted = {vector(t, h) for t in basis for h in heights}
    units = [tuple(int(i == j) for i in range(P.nfacets))
             for j in range(P.nfacets)]
    code = topology.SRKeys(units, cap_s // min(weights))
    monomials = []
    for keyed in topology.sr_slices(topology.build_nerve(P), code):
        for t in map(code.decode, keyed):
            for h in heights:
                lam, nu = vector(t, h)
                if lam <= cap_s:
                    theta0 = lam + k * sum(map(mul, ctx.scaled_points[0], nu))
                    region = 2 if (lam, nu) in shifted else int(lam <= inner_w)
                    monomials.append((region, theta0, lam, nu))
    assert len(shifted) == len(basis) * len(heights)
    assert sum(x[0] == 2 for x in monomials) == len(shifted)
    return monomials


@pytest.mark.parametrize("p", [None, 1000003])
@pytest.mark.parametrize("name", ["cp3", "hirzebruch_f2", "cp2_perturbed"])
def test_slice_columns_run_by_region_with_the_basis_last(corpus, monkeypatch,
                                                         name, p):
    # at every cap, every row is c'_k * m read in the column order (region,
    # theta_{v0}, lam, nu), and the basis takes the last m * dim_r columns
    perts = None
    if name == "cp2_perturbed":
        name = "cp2"
        perts = _random_perturbations(corpus[name], random.Random(3))
        assert any(not x.is_zero() for x in perts)
    P = corpus[name]
    steps = _recorded_rows(monkeypatch, P, 3, perts, p)
    assert len({id(piece) for piece, *_ in steps}) == 1
    for piece, cap, rows, result in steps:
        _, ctx, set_up, basis, _ = piece.args
        keys = piece.keys
        monomials = sorted(_slice_monomials(P, ctx, set_up, cap, basis))
        assert sum(x[0] > 0 for x in monomials) == result[0]
        where = {(lam, nu): keys.column(keys.encode((lam, *nu)), region)
                 for region, _, lam, nu in monomials}
        cols = [where[lam, nu] for _, _, lam, nu in monomials]
        assert cols == sorted(set(cols))
        basis_count = len(basis) * len(set_up.levels)
        assert all(x[0] == 2 for x in monomials[-basis_count:])
        terms = [list(rel) for rel in set_up.relations]

        def times(a, b):
            return a[0] + b[0], tuple(map(add, a[1], b[1]))

        starts = [keys.column(keys.origin, r) for r in (1, 2)]

        def decoded(col):
            # the monomial of a column, which must sit in its region
            region = sum(col >= start for start in starts)
            lam, *nu = keys.decode(col - keys.column(0, region))
            assert where[lam, tuple(nu)] == col
            return lam, tuple(nu)

        assert rows
        for row in rows:
            got = set(map(decoded, row))
            x = decoded(min(row))
            assert any({q for q in (times(m, t) for t in rel)
                        if q in where} == got
                       for rel in terms for tau in rel
                       for m in [(x[0] - tau[0], tuple(map(sub, x[1], tau[1])))]
                       if m in where), (name, p, cap, row)


def _slice_args(monkeypatch, P, **kwargs):
    """The arguments of the one slice that ``jacobian_freeness`` builds."""
    calls = []

    class Recorded(jacobian._Slice):
        def __init__(self, *args):
            calls.append(args)
            super().__init__(*args)

    with monkeypatch.context() as patch:
        patch.setattr(jacobian, "_Slice", Recorded)
        jacobian_freeness(P, **kwargs)
    assert len(calls) == 1
    return calls[0]


def test_dependent_basis_is_not_independent(cp1, monkeypatch):
    # v1 = v2 in the classical ring of CP^1, so the shifted basis
    # (v1, v2) is dependent in the quotient though it has the right count
    args = _slice_args(monkeypatch, cp1, g=1)
    plain = jacobian._Slice(*args)
    dependent = jacobian._Slice(*args[:3], ((1, 0), (0, 1)), args[4])
    for cap in args[2].caps:
        assert plain.grow(cap) == (5, 2, True)
        assert dependent.grow(cap) == (5, 2, False)


def _growth_cases(corpus):
    """(polyhedron, keyword arguments of ``jacobian_freeness``) for the
    grown-slice test, over Q and F_1000003."""
    cases = [(corpus["hirzebruch_f2"], {"g": g}) for g in (1, 2, 3)]
    for name, offsets, _ in SKEWED:
        base = corpus[name]
        P = polyhedron(base.dim, list(zip(base.normals, offsets)))
        cases += [(P, {"g": g}) for g in (1, 2)]
    cp2 = corpus["cp2"]
    cases.append((cp2, {"g": 3, "perturbations": _random_perturbations(
        cp2, random.Random(3))}))
    cases.append((corpus["cp1xcp1"], {"g": 2, "rho": (2, -1, Fraction(1, 3),
                                                      1)}))
    return [(P, {**kwargs, "p": p}) for P, kwargs in cases
            for p in (None, 1000003)]


def test_grown_slice_counts_equal_a_fresh_slice(corpus, monkeypatch):
    # one slice grown through the call's three caps has, at each cap, the
    # counts of a slice built for that cap alone and of every row
    escalated = 0
    for P, kwargs in _growth_cases(corpus):
        args = _slice_args(monkeypatch, P, **kwargs)
        P_, ctx, set_up, basis, p = args
        g, inner_cap, caps, levels = _fractions(set_up)
        original = _definition_relations(P, kwargs.get("rho"),
                                         kwargs.get("perturbations"))
        grown = jacobian._Slice(*args)
        counts = []
        for cap, cap_s in zip(caps, set_up.caps):
            fresh = jacobian._Slice(P_, ctx, replace(set_up, caps=(cap_s,)),
                                    basis, p).grow(cap_s)
            want = _reference_attempt(P, ctx, levels, g, original, cap,
                                      inner_cap, basis, p)[0]
            counts.append(grown.grow(cap_s))
            assert counts[-1] == fresh == want, (kwargs, cap)
        escalated += counts[0] != counts[1]
    # every unperturbed, unrescaled case confirms only at a larger cap, so
    # the counts there come from a grown slice
    assert escalated == 18


def test_no_row_reaches_the_eliminator_twice(corpus, monkeypatch):
    # one eliminator per call, and one add_row per distinct row c'_k * m:
    # an escalation adds only the rows that the larger cap adds, so the
    # call's rows are those of fresh slices at the two caps it tries
    P = corpus["hirzebruch_f2"]
    made, rows, pairs = [], [], []

    class Recording(linalg.Eliminator):
        def __init__(self, p=None):
            made.append(self)
            super().__init__(p)

        def add_row(self, row):
            rows.append(frozenset(row.items()))
            return super().add_row(row)

    class Walked(jacobian._Slice):
        def _walk(self, cap_s):
            # the (key of m, k) of every nonempty row c'_k * m to be added
            pending = super()._walk(cap_s)
            pairs.extend((key, k) for _, key, _, _, built in pending
                         for k in range(built)
                         if any(key + step in self.columns
                                for step, _, _ in self.terms[k]))
            return pending

    monkeypatch.setattr(jacobian, "linalg", SimpleNamespace(
        Eliminator=Recording, normalize=linalg.normalize))
    monkeypatch.setattr(jacobian, "_Slice", Walked)
    args = _slice_args(monkeypatch, P, g=3)
    assert len(made) == 1
    call, call_pairs = rows[:], pairs[:]
    assert len(call) == len(call_pairs) == len(set(call_pairs)) == 2029
    fresh_pairs, fresh_rows = set(), set()
    # the call escalates once; the rebuild made 2,309
    for cap in args[2].caps[:2]:
        rows.clear()
        pairs.clear()
        Walked(*args).grow(cap)
        fresh_pairs.update(pairs)
        fresh_rows.update(rows)
    assert set(call_pairs) == fresh_pairs
    assert set(call) == fresh_rows


def test_slice_missing_a_monomial_of_height_zero_raises(cp2, monkeypatch):
    # every monomial of the slice has height below g, so a product missing
    # from it must have height at least g; drop the height-zero generator
    # v_l for a facet l off the first vertex, which c'_k * 1 reaches, from
    # the slice's walk only (the classical presentation walks too)
    first = vertex_coordinates(cp2, 0)[0]
    l = next(j for j in range(1, cp2.nfacets + 1) if j not in first)
    walk = topology.sr_walk

    def holed(K, vectors, cap):
        return ((face, vec) for face, vec in walk(K, vectors, cap)
                if vec != list(vectors[l - 1]))

    monkeypatch.setattr(jacobian, "topology", SimpleNamespace(
        **{**vars(topology), "sr_walk": holed}))
    with pytest.raises(VerificationError,
                       match="misses a product of height 0 "):
        jacobian_freeness(cp2, g=1)


def _benchmark_perturbations(P, rng, terms, degree, height):
    """Perturbations of the benchmark's shape: ``terms`` nonzero entries on
    random facets, each one monomial T^height * v^t with |t| = degree and
    a small rational coefficient."""
    ctx = mo.monoid_for(P)
    perts = [ctx.zero()] * P.nfacets
    for j in rng.sample(range(P.nfacets), min(terms, P.nfacets)):
        t = [0] * P.nfacets
        for _ in range(degree):
            t[rng.randrange(P.nfacets)] += 1
        coeff = Fraction(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)),
                         rng.randrange(1, 4))
        perts[j] = ctx.element({ctx.from_exponents(t, height): coeff})
    return perts


class _SliceReached(Exception):
    pass


def _call_set_up(monkeypatch, P, **kwargs):
    """The set-up that ``jacobian_freeness`` hands its slice, which is then
    not built, and the height monoid's generators that it read, as
    Fractions."""
    got = []
    real = jacobian.scaled_height_levels

    def recorded(ctx, extra, top, D):
        generators, levels = real(ctx, extra, top, D)
        got.append(tuple(Fraction(x, D) for x in generators))
        return generators, levels

    class Stopped(jacobian._Slice):
        def __init__(self, P, ctx, set_up, basis, p):
            got.append(set_up)
            raise _SliceReached

    with monkeypatch.context() as patch:
        patch.setattr(jacobian, "_Slice", Stopped)
        patch.setattr(jacobian, "scaled_height_levels", recorded)
        with pytest.raises(_SliceReached):
            jacobian_freeness(P, **kwargs)
    generators, set_up = got
    return set_up, generators


def _check_set_up(monkeypatch, P, **kwargs):
    # the integer set-up is the one computed on Fractions: the same L, the
    # same scaled cutoff, window, caps and levels, the same generators, and
    # relation maps with the FilteredElement sums' terms, in their order,
    # at the same scaled weights and with the same row coefficients
    set_up, generators = _call_set_up(monkeypatch, P, **kwargs)
    want = reference.jacobian_set_up(
        P, kwargs.get("g", 1), kwargs.get("rho"), kwargs.get("perturbations"),
        kwargs.get("p"))
    assert (set_up.scale, set_up.g, set_up.inner, set_up.caps,
            set_up.levels) == (want.scale, want.g, want.inner, want.caps,
                               want.levels)
    assert [list(rel.items()) for rel in set_up.relations] == \
        [list(rel.items()) for rel in want.relations]
    assert all(type(c) is int for rel in set_up.relations
               for c in rel.values())
    assert generators == want.generators


def test_relation_maps_match_filtered_element_sums(corpus, monkeypatch):
    rng = random.Random(39)
    units = (1, -1, 2, Fraction(1, 3))
    for name, P in corpus.items():
        for p in (None, 7, 1000003):
            _check_set_up(monkeypatch, P, g=2, p=p)
        for shape in ((1, 1, 1), (2, 2, 1), (2, 3, 1), (3, 2, 2)):
            perts = _benchmark_perturbations(P, rng, *shape)
            for p in (None, 7):
                _check_set_up(monkeypatch, P, g=3, perturbations=perts, p=p)
        rho = [rng.choice(units) for _ in range(P.nfacets)]
        _check_set_up(monkeypatch, P, g=2, rho=rho)
        perts = _benchmark_perturbations(P, rng, 2, 2, 1)
        _check_set_up(monkeypatch, P, g=3, rho=rho, perturbations=perts,
                      p=1000003)


def test_relation_maps_match_on_random_polyhedra(monkeypatch):
    rng = random.Random(3939)
    units = (1, -1, 2, Fraction(1, 3))
    for i in range(40):
        P = catalog.random_delzant(rng, 1 + i % 3, 7)
        rho = [rng.choice(units) for _ in range(P.nfacets)] \
            if i % 2 else None
        perts = _benchmark_perturbations(P, rng, rng.randrange(4),
                                         rng.randrange(1, 4), 1)
        _check_set_up(monkeypatch, P, g=2, rho=rho, perturbations=perts,
                      p=None if i % 4 < 2 else 1000003)


CUTOFFS = (Fraction(1, 2), 1, 2, 3, Fraction(7, 3))


def test_set_up_matches_the_fraction_reference(corpus, monkeypatch):
    rng = random.Random(41)
    units = (1, -1, 2, Fraction(1, 3))
    for name, P in corpus.items():
        rho = [rng.choice(units) for _ in range(P.nfacets)]
        rho[0] = Fraction(1, 3)  # one non-unit entry at least
        for g in CUTOFFS:
            for p in (None, 7, 1000003):
                perts = _benchmark_perturbations(P, rng, *rng.choice(
                    ((1, 1, 1), (2, 2, 1), (2, 3, 1), (3, 2, 2))))
                for kwargs in ({}, {"rho": rho}, {"perturbations": perts},
                               {"rho": rho, "perturbations": perts}):
                    _check_set_up(monkeypatch, P, g=g, p=p, **kwargs)


def test_set_up_check_catches_a_planted_mutation(corpus, monkeypatch):
    # the inner window without g, planted in the integer set-up, must fail
    # the comparison with the Fraction set-up on every input
    real = jacobian._caps
    monkeypatch.setattr(jacobian, "_caps", lambda n, offsets, weight, g, r:
                        real(n, offsets, weight, 0, r))
    for name, P in corpus.items():
        for g in CUTOFFS:
            with pytest.raises(AssertionError):
                _check_set_up(monkeypatch, P, g=g)


@pytest.mark.parametrize("p", [None, 7])
def test_slice_runs_over_l_when_a_perturbation_cancels(cp1, monkeypatch, p):
    # on cp1 the one relation is h_1 - h_2, so T^(5/2) cancels and no value
    # the slice reads needs the denominator 2 of L; the slice still runs
    # over L = 2, with the report of a slice over 1
    ctx = mo.monoid_for(cp1)
    half = ctx.t_power(Fraction(5, 2))
    perts = [ctx.element({half: 1, ctx.t_power(3): 1}), ctx.element({half: 1})]
    _check_set_up(monkeypatch, cp1, g=1, perturbations=perts, p=p)
    scales = []

    class Recorded(jacobian._Slice):
        def __init__(self, P, ctx, set_up, basis, p):
            scales.append(set_up.scale)
            super().__init__(P, ctx, set_up, basis, p)

    monkeypatch.setattr(jacobian, "_Slice", Recorded)
    rep = jacobian_freeness(cp1, perturbations=perts, g=1, p=p)
    assert scales == [2]
    assert rep.monoid_generators == (0, 2, Fraction(5, 2), 3)
    assert (rep.weight_cap, rep.escalations, rep.dim_s, rep.dim_quotient,
            rep.free) == (4, 0, 5, 2, True)


FRACTION_METHODS = [name for name in (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__divmod__", "__rdivmod__", "__pow__",
    "__rpow__", "__pos__", "__neg__", "__abs__", "__trunc__", "__floor__",
    "__ceil__", "__round__", "__int__", "__eq__", "__lt__", "__gt__",
    "__le__", "__ge__", "__hash__", "__bool__") if name in vars(Fraction)]


def test_unperturbed_jacobian_makes_no_fraction_arithmetic(monkeypatch):
    # the set-up runs in integers: on polyhedra fresh from their files, so
    # that nothing is memoized yet, an unperturbed call does no Fraction
    # arithmetic, comparison, hashing or truth test
    calls = collections.Counter()

    def counted(name, method):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        return wrapper

    for name in FRACTION_METHODS:
        monkeypatch.setattr(Fraction, name, counted(name,
                                                     vars(Fraction)[name]))
    checked = 0
    for p in (None, 7, 1000003):
        for name, P in catalog.load_valid_examples().items():
            rho = [(2, Fraction(1, 3), -1)[j % 3] for j in range(P.nfacets)]
            for kwargs in ({}, {"rho": rho}, {"g": Fraction(7, 3)}):
                calls.clear()
                report = jacobian_freeness(P, p=p, **kwargs)
                assert not calls, (name, p, kwargs, dict(calls))
                checked += report.free
    assert checked == 81


def test_jacobian_builds_no_structure_table_and_no_nonfaces(corpus,
                                                            monkeypatch):
    # the report reads the classical basis alone: with the table and the
    # nonfaces made to raise, fresh copies of the corpus give the reports
    # the corpus gives
    def unread(*args):
        raise AssertionError("the Jacobian check built what it does not read")

    rng = random.Random(17)
    cases = []
    for name, P in corpus.items():
        perts = _benchmark_perturbations(P, rng, 2, 2, 1)
        cases += [(name, {"g": g}) for g in (1, 2)]
        cases.append((name, {"g": 3, "perturbations": perts, "p": 7}))
    want = [jacobian_freeness(corpus[name], **kwargs)
            for name, kwargs in cases]
    fresh = catalog.load_valid_examples()
    with monkeypatch.context() as patch:
        patch.setattr(pr, "_classical_structure", unread)
        patch.setattr(pr, "minimal_nonfaces", unread)
        with pytest.raises(AssertionError, match="does not read"):
            pr.classical_presentation(catalog.load_example("cp2"))
        got = []
        for name, kwargs in cases:
            P = fresh[name]
            if "perturbations" in kwargs:  # over the fresh copy's monoid
                ctx = mo.monoid_for(P)
                kwargs = {**kwargs, "perturbations": [
                    ctx.element({ctx.monomial(mm.lam, mm.nu): c
                                 for mm, c in pert.terms.items()})
                    for pert in kwargs["perturbations"]]}
            got.append(jacobian_freeness(P, **kwargs))
    assert got == want


def test_classical_layers_are_built_once_per_polyhedron(monkeypatch,
                                                        tmp_path):
    # audit's classical, quantum and jacobian calls, and classical tables
    # over other rings, share one build of the classical layers
    built = []
    real = topology.vertex_rows

    def counting(P, top, *args, **kwargs):
        if not args and not kwargs:  # the classical walk, not the quantum
            built.append(P)
        return real(P, top, *args, **kwargs)

    monkeypatch.setattr(topology, "vertex_rows", counting)
    cp2 = catalog.load_example("cp2")
    doubled = tmp_path / "cp2_doubled.json"
    doubled.write_text(json.dumps({"dim": 2, "facets": [
        {"normal": list(nu), "offset": 2} for nu in cp2.normals]}))
    path = str(resources.files("toricqh").joinpath("data", "cp2.json"))
    for source in (path, str(doubled)):
        built.clear()
        assert cli.main(["--input", source, "--command", "audit"]) == 0
        # P and the three relabelled copies, and their normalizations
        assert len(built) == (4 if source == path else 8)
        assert len({id(P) for P in built}) == len(built)
    built.clear()
    P = catalog.load_example("cp2")
    for ring in ("Z", "Q", "F7"):
        pr.classical_presentation(P, ring)
    jacobian_freeness(P, g=2)
    pr.quantum_presentation(P)
    assert built == [P]
