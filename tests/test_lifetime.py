"""Derived data lives on the polyhedron object and dies with it."""

import gc
import json
import random
import weakref

from toricqh import catalog, cli
from toricqh import presentation as pr
from toricqh.jacobian import jacobian_freeness
from toricqh.linalg import random_unimodular
from toricqh.monoid import ConeMonoid, monoid_for
from toricqh.polyhedra import (DelzantPolyhedron, monotone_normalization,
                               polyhedron, polyhedron_to_json, relabel_lattice)
from toricqh.topology import regular_sequence_check


def _unseen_cp2(seed):
    """A lattice relabelling of cp2 that no other test builds, so that no
    cache keyed by value can already hold an equal polyhedron."""
    U = random_unimodular(2, random.Random(seed))
    return relabel_lattice(catalog.load_example("cp2"), U)


def test_polyhedron_is_freed_after_use():
    P = _unseen_cp2(20261018)
    pr.classical_presentation(P)
    pr.quantum_presentation(P)
    jacobian_freeness(P, g=2)
    regular_sequence_check(P)
    pr.divisor_inverse_certificate(P, 1)
    pr.basis_independence_audit(P)
    ref = weakref.ref(P)
    del P
    gc.collect()
    assert ref() is None


def test_cli_leaves_no_polyhedron_behind(tmp_path, capsys):
    path = str(tmp_path / "cp2.json")
    with open(path, "w") as fh:
        json.dump(polyhedron_to_json(_unseen_cp2(20261019)), fh)
    before = [o for o in gc.get_objects() if isinstance(o, DelzantPolyhedron)]
    known = {id(o) for o in before}
    for command in ("quantum", "jacobian", "audit"):
        assert cli.main(["--input", path, "--command", command]) == 0
    capsys.readouterr()
    gc.collect()
    left = [o for o in gc.get_objects()
            if isinstance(o, DelzantPolyhedron) and id(o) not in known]
    assert left == []


def test_memoized_calls_return_the_same_object():
    P = catalog.load_example("o_minus_1")
    assert monoid_for(P) is monoid_for(P)
    assert pr.classical_presentation(P) is pr.classical_presentation(P)
    assert pr.quantum_presentation(P, _rho=(1, -1, 1), margin=1) is \
        pr.quantum_presentation(P, margin=1, _rho=(1, -1, 1))


def test_bfield_builds_one_monoid_per_polyhedron(monkeypatch):
    cp2 = catalog.load_example("cp2")
    P = polyhedron(2, [(nu, 2) for nu in cp2.normals])
    assert monotone_normalization(P) is monotone_normalization(P)
    built = []
    init = ConeMonoid.__init__

    def counting_init(self, Q):
        built.append(Q)
        init(self, Q)

    monkeypatch.setattr(ConeMonoid, "__init__", counting_init)
    pr.apply_bfield(P, (2, 1, 1))
    # one for the normalization, built by the one quantum presentation, and
    # one for P, built by the deformed quantum Stanley-Reisner relations
    assert len(built) == 2
    assert built[0] is monotone_normalization(P).rescaled and built[1] is P


def test_normalization_of_a_normalized_polyhedron_is_itself():
    P = catalog.load_example("cp2")
    assert monotone_normalization(P).rescaled is P
    assert pr.quantum_presentation(P).normalized is P


def test_value_equal_polyhedra_compute_separately():
    P = catalog.load_example("cp2")
    P2 = catalog.load_example("cp2")
    assert P == P2 and P is not P2
    a, b = pr.classical_presentation(P), pr.classical_presentation(P2)
    assert a == b and a is not b
    assert monoid_for(P) is not monoid_for(P2)
