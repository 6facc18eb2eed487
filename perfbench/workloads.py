"""The two workloads: their inputs, made from a seed, and their op lists.

One op is one cold ``toricqh`` command line.  Each workload is a fixed list
of op slots, repeated in ``ROUNDS`` rounds; the seed and the round fill the
random slots (polyhedra, perturbations, B-field units, primes) but never
change the number of slots, their commands or the shape parameters that set
their cost, so that two seeds give runs of comparable work.  Ops without a
random slot (corpus inputs, bad command lines) are the same in every round.
Each round draws its own random inputs, so a run averages over several
draws per slot and the cost of one unlucky draw moves the run's timings
less.

Why these two.  Each stresses different layers, so that a change to one
layer shows on the workload that exercises it and shows no change on the
workload that bypasses it:

* ``algebra``: the presentation ops and the Jacobian ops below, one list.
  - Presentation ops: ``quantum``, ``classical`` and ``audit`` on monotone
    polyhedra and ``classical`` on small random ones.  Their time is in
    ``linalg``: ``solve_rational`` for the structure constants, the dense
    Hermite form and the greedy basis loops; ``lp`` takes about a tenth and
    ``topology`` almost nothing.
  - Jacobian ops: freeness checks at cutoffs 1-3, perturbed, rescaled and
    over large primes.  Their time is in ``monoid`` (``monomial`` ->
    ``decompose`` -> ``solve_rational``) and in ``linalg.Eliminator``; the
    dense Hermite form hardly runs.
* ``geometry``: many small ``validate``, ``cm`` and ``invert`` ops on random
  polyhedra of dimension 2-4, two invalid inputs and six bad command lines.
  The time is in the irredundancy and compactness LPs, vertex enumeration,
  nerve homology and thousands of tiny ``rank`` calls; presentation and
  monoid code are almost absent, so a faster ``presentation`` or ``monoid``
  should leave it unchanged, and an elimination engine with a per-call
  set-up cost shows here as a slowdown.

The presentation and Jacobian ops were first two workloads.  On a shared
2-core machine whose speed drifts by a third within minutes, three workloads
left too little time per run to make their spreads steady, so they share one
list and each run is longer; the per-layer metrics still tell them apart.

Which end-to-end metric each per-layer metric should move, and where:

* ``linalg.hermite_normal_form.*``, ``linalg.solve_rational.*`` and
  ``linalg.smith_normal_form.calls``: ops_per_s, latency_tail_s and
  peak_rss_mb on algebra (its presentation ops).
* ``linalg.Eliminator.add_row.*``: ops_per_s on algebra (its Jacobian ops),
  and on geometry (many small calls).
* ``monoid.*``, ``jacobian.jacobian_freeness.self_s`` and
  ``jacobian.escalations``: ops_per_s and latency_tail_s on algebra.
* ``lp.solve.*`` and ``polyhedra.*``: latency_p50_s and ops_per_s on
  geometry; ``minimal_nonfaces`` also on algebra.
* ``topology.*``: ops_per_s on geometry.
* ``presentation.*.self_s`` and ``cli.main.self_s``: ops_per_s on algebra.

Expected exit codes follow the CLI contract in the README: 0 success,
2 input error, 3 precondition violation, 4 verified-property failure.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace

import gen

CORPUS = "src/toricqh/data/{}.json"
MONOTONE_CORPUS = ("c1", "c2", "c3", "cp1", "cp2", "cp3", "cp1xcp1",
                   "o_minus_1")
VALID_CORPUS = MONOTONE_CORPUS + ("hirzebruch_f2",)
PRIMES = (10007, 32003, 65521, 1000003)


@dataclass(frozen=True)
class Op:
    id: str
    input: str            # path relative to the checkout root
    command: str
    args: tuple = ()
    expect: int = 0
    error_path: bool = False
    workload: str = ""

    @property
    def key(self):
        return f"{self.workload}/{self.id}"

    def argv(self):
        return ["--input", self.input, "--command", self.command,
                "--format", "json", *self.args]


class Inputs:
    """Generated files of one workload and seed, kept in memory until
    written under ``root``."""

    def __init__(self, root: str):
        self.root = root
        self.files: dict[str, str] = {}

    def path(self, name: str) -> str:
        return f"{self.root}/{name}"

    def add(self, name: str, text: str) -> str:
        self.files[self.path(name)] = text
        return self.path(name)


def _rng(seed, *slot):
    return random.Random(f"{seed}/" + "/".join(map(str, slot)))


def _fixed_monotone(inputs):
    return {name: inputs.add(f"{name}.json", gen.polyhedron_json(dim, facets))
            for name, (dim, facets) in gen.fixed_monotone().items()}


def _random_polyhedron(inputs, seed, rnd, slot, kind, dim, cuts):
    name = f"r{rnd}-rand{slot}-{kind}{dim}-c{cuts}"
    d, facets = gen.random_delzant(_rng(seed, name), kind, dim, cuts)
    return name, inputs.add(f"{name}.json", gen.polyhedron_json(d, facets))


def _units(rng, n, choices):
    return ",".join(str(rng.choice(choices)) for _ in range(n))


# Random classical slots: (seed shape, dimension, truncations); dimension 2-3,
# at most 7 facets.
PRESENTATION_RANDOM = (("simplex", 2, 2), ("cube", 2, 3), ("simplex", 3, 1))


def presentation(seed, inputs, rnd):
    fixed = _fixed_monotone(inputs)
    monotone = {name: CORPUS.format(name) for name in MONOTONE_CORPUS}
    monotone.update(fixed)
    ops = []
    for name, path in monotone.items():
        for command in ("quantum", "classical"):
            ops.append(Op(f"{command}/{name}", path, command))
    rng = _rng(seed, "bfield", rnd)
    for name, n in (("cp2", 3), ("cp1xcp1", 4), ("cp2_bl1", 4)):
        units = _units(rng, n, ("2", "-1", "1/3", "-3/2"))
        ops.append(Op(f"quantum-bfield-r{rnd}/{name}", monotone[name],
                      "quantum", (f"--bfield={units}",)))
    ops.append(Op("quantum-margin1/cp2", monotone["cp2"], "quantum",
                  ("--margin", "1")))
    ops.append(Op("classical/hirzebruch_f2", CORPUS.format("hirzebruch_f2"),
                  "classical"))
    for name in ("cp2", "cp1xcp1", "o_minus_1"):
        ops.append(Op(f"audit/{name}", monotone[name], "audit"))
    for slot, (kind, dim, cuts) in enumerate(PRESENTATION_RANDOM):
        name, path = _random_polyhedron(inputs, seed, rnd, f"{slot:02d}", kind,
                                        dim, cuts)
        ops.append(Op(f"classical/{name}", path, "classical"))
    return ops


# Perturbation slots per corpus example at cutoff 3: (nonzero entries,
# monomial degree, extra height).  The working slice, hence the cost, grows
# with the T-weight of the entries, which these three numbers fix.
PERTURBATIONS = {
    "c1": ((1, 1, 1), (2, 2, 1), (2, 3, 1)),
    "c2": ((1, 1, 1), (2, 2, 1), (2, 3, 1)),
    "c3": ((1, 1, 1), (2, 2, 1), (2, 3, 1)),
    "cp1": ((1, 1, 1), (2, 2, 1), (2, 3, 1)),
    "cp2": ((1, 1, 1), (2, 2, 1), (2, 3, 1)),
    "cp3": ((1, 1, 1), (2, 2, 1), (2, 2, 2)),
    "cp1xcp1": ((1, 1, 1), (2, 2, 1), (3, 2, 1)),
    "o_minus_1": ((1, 1, 1), (2, 2, 1), (2, 3, 1)),
    "hirzebruch_f2": ((1, 1, 1), (2, 2, 1), (2, 2, 2)),
}


def jacobian(seed, inputs, rnd):
    ops = []
    for name in VALID_CORPUS:
        for g in (1, 2, 3):
            ops.append(Op(f"jacobian-g{g}/{name}", CORPUS.format(name),
                          "jacobian", ("--cutoff", str(g))))
    for name in VALID_CORPUS:
        dim, facets = gen.load_corpus(_read(CORPUS.format(name)))
        for k, (terms, degree, height) in enumerate(PERTURBATIONS[name]):
            rng = _rng(seed, "perturb", rnd, name, k)
            text = gen.random_perturbation(rng, dim, facets,
                                           min(terms, len(facets)), degree,
                                           height)
            path = inputs.add(f"r{rnd}-perturb-{name}-{k}.json", text)
            ops.append(Op(f"jacobian-g3-perturb{k}-r{rnd}/{name}",
                          CORPUS.format(name), "jacobian",
                          ("--cutoff", "3", "--perturb", path)))
    for name in VALID_CORPUS:
        n = len(gen.load_corpus(_read(CORPUS.format(name)))[1])
        for k in range(2):
            units = _units(_rng(seed, "bfield", rnd, name, k), n,
                           ("1", "-1", "2", "1/3"))
            ops.append(Op(f"jacobian-g2-bfield{k}-r{rnd}/{name}",
                          CORPUS.format(name), "jacobian",
                          ("--cutoff", "2", f"--bfield={units}")))
    # Every fourth op runs over a large prime field, which takes the mod-p
    # elimination path; the primes divide no denominator above (all <= 3).
    rng = _rng(seed, "primes", rnd)
    for i in range(0, len(ops), 4):
        op = ops[i]
        ops[i] = replace(op, id=op.id.replace("/", f"-fp-r{rnd}/", 1),
                         args=op.args + ("--ring", f"fp:{rng.choice(PRIMES)}"))
    return ops


# Random geometry slots: (seed shape, dimension, truncations); dimension 2-4,
# at most 10 facets.  Every command of a slot gets its own polyhedron, so a
# round makes four independent draws per slot.  Orthants are non-compact, so
# ``invert`` on them is a precondition violation (exit 3).
GEOMETRY_RANDOM = (("simplex", 2, 3), ("cube", 2, 4), ("orthant", 2, 3),
                   ("cube", 2, 6),
                   ("simplex", 3, 2), ("cube", 3, 2), ("orthant", 3, 3),
                   ("simplex", 3, 4), ("cube", 3, 1), ("orthant", 3, 5),
                   ("simplex", 4, 2), ("simplex", 4, 3), ("cube", 4, 1),
                   ("orthant", 4, 2), ("cube", 4, 2), ("orthant", 4, 4),
                   ("simplex", 4, 5), ("simplex", 4, 4))

GEOMETRY_COMMANDS = (("validate", ()), ("cm", ()), ("cm", ("--ring", "fp:2")),
                     ("invert", ()))


def geometry(seed, inputs, rnd):
    ops = []
    for slot, (kind, dim, cuts) in enumerate(GEOMETRY_RANDOM):
        for k, (command, args) in enumerate(GEOMETRY_COMMANDS):
            name, path = _random_polyhedron(inputs, seed, rnd,
                                            f"{slot:02d}{'abcd'[k]}", kind,
                                            dim, cuts)
            expect = 3 if command == "invert" and kind == "orthant" else 0
            label = command + ("-fp2" if args else "")
            ops.append(Op(f"{label}/{name}", path, command, args, expect))
    # Invalid corpus inputs: validate reports the failed property (4); the
    # other commands need a Delzant polyhedron with a vertex (3).
    for name in ("non_delzant", "vertexless"):
        for command, args in GEOMETRY_COMMANDS:
            label = command + ("-fp2" if args else "")
            ops.append(Op(f"{label}/{name}", CORPUS.format(name), command,
                          args, 4 if command == "validate" else 3))
    missing = inputs.path("missing.json")  # never written
    for label, path, command, args in (
            ("cutoff-abc", "cp1", "jacobian", ("--cutoff", "abc")),
            ("cutoff-1/0", "cp1", "jacobian", ("--cutoff", "1/0")),
            ("ring-fp:x", "cp2", "cm", ("--ring", "fp:x")),
            ("perturb-missing", "cp1", "jacobian", ("--perturb", missing)),
            ("margin-5", "cp2", "quantum", ("--margin", "-5")),
            ("ring-fp:4", "cp2", "cm", ("--ring", "fp:4"))):
        ops.append(Op(f"error/{label}", CORPUS.format(path), command, args,
                      2, True))
    return ops


def algebra(seed, inputs, rnd):
    return presentation(seed, inputs, rnd) + jacobian(seed, inputs, rnd)


WORKLOADS = {"algebra": algebra, "geometry": geometry}
ROUNDS = {"algebra": 2, "geometry": 4}

# Seconds of one pass over each workload's ops (all its rounds) at the
# commit that defined the benchmark, on a 2-core machine; sets the pass
# count of a run.
PASS_SECONDS = {"algebra": 34, "geometry": 36}


def _read(path):
    with open(path) as fh:
        return fh.read()


def build(workload: str, seed: int, inputs_root: str):
    """(inputs, ops, digest) for one workload and seed.

    The digest covers every input file, generated or from the corpus, and
    every op's command line, so it changes whenever the input set does.  An
    op id that recurs in later rounds names the same command line.
    """
    inputs = Inputs(inputs_root)
    ops = [replace(op, workload=workload)
           for rnd in range(ROUNDS[workload])
           for op in WORKLOADS[workload](seed, inputs, rnd)]
    first = {}
    for op in ops:
        if first.setdefault(op.id, op) != op:
            raise ValueError(f"op id {op.id} names two command lines")
    h = hashlib.sha256()
    corpus = {op.input: _read(op.input) for op in ops
              if op.input not in inputs.files}
    for path, text in sorted({**inputs.files, **corpus}.items()):
        h.update(path.encode() + b"\0" + text.encode() + b"\0")
    for op in ops:
        h.update("\0".join([op.id, str(op.expect)] + op.argv()).encode()
                 + b"\n")
    return inputs, ops, h.hexdigest()
