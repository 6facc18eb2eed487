import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

import reference
from toricqh import catalog, cli
from toricqh.errors import PreconditionError, VerificationError
from toricqh.polyhedra import parse_polyhedron, polyhedron_to_json


def data_path(name):
    return str(resources.files("toricqh").joinpath("data", f"{name}.json"))


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_quantum_o_minus_1_text(capsys):
    code, out, _ = run(capsys, "--input", data_path("o_minus_1"),
                       "--command", "quantum")
    assert code == 0
    assert "v2^2 = T*v2" in out
    assert "v1*v3 = T*v2" in out
    assert "basis_size: 2" in out


def test_validate_pass(capsys):
    code, out, _ = run(capsys, "--input", data_path("cp2"),
                       "--command", "validate")
    assert code == 0
    assert "compact: True" in out


def test_validate_non_delzant_fails(capsys):
    code, out, _ = run(capsys, "--input", data_path("non_delzant"),
                       "--command", "validate")
    assert code == 4
    assert "determinant" in out


def test_validate_vertexless_fails(capsys):
    code, out, _ = run(capsys, "--input", data_path("vertexless"),
                       "--command", "validate")
    assert code == 4
    assert "has_vertex: False" in out


def test_parse_error_imprimitive(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"dim": 2, "facets": [{"normal": [2, 0], "offset": "1"},
                              {"normal": [0, 1], "offset": "1"}]}))
    code, _, err = run(capsys, "--input", str(bad), "--command", "validate")
    assert code == 2
    assert "primitive" in err


def test_parse_error_bad_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "--input", str(bad), "--command", "validate")
    assert code == 2


def test_quantum_on_non_monotone_is_precondition_error(capsys):
    code, _, err = run(capsys, "--input", data_path("hirzebruch_f2"),
                       "--command", "quantum")
    assert code == 3
    assert "monotone" in err


def test_classical_on_vertexless_is_precondition_error(capsys):
    code, _, err = run(capsys, "--input", data_path("vertexless"),
                       "--command", "classical")
    assert code == 3


def test_cm_cp2(capsys):
    code, out, _ = run(capsys, "--input", data_path("cp2"), "--command", "cm")
    assert code == 0
    assert "passed: True" in out
    assert "expected: S^1" in out


def test_cm_with_prime_field(capsys):
    code, out, _ = run(capsys, "--input", data_path("cp2"), "--command", "cm",
                       "--ring", "fp:2")
    assert code == 0
    assert "field: F2" in out


def test_ring_with_a_large_prime(capsys):
    # 10^18 + 3 is prime; more than 24 digits are refused as too large,
    # before the digits are read as a number
    code, out, _ = run(capsys, "--input", data_path("cp2"),
                       "--command", "classical", "--ring",
                       "fp:1000000000000000003")
    assert code == 0
    assert "F1000000000000000003" in out
    code, out, err = run(capsys, "--input", data_path("cp2"),
                         "--command", "classical", "--ring", "fp:" + "1" * 5000)
    assert code == 2 and out == ""
    assert "too large" in err and err.count("\n") == 1 and len(err) < 200


def test_invert_compact(capsys):
    code, out, _ = run(capsys, "--input", data_path("cp1"),
                       "--command", "invert")
    assert code == 0
    assert "v1*v2 = T^2" in out


def test_invert_noncompact_error(capsys):
    code, _, err = run(capsys, "--input", data_path("o_minus_1"),
                       "--command", "invert")
    assert code == 3
    assert "not compact" in err


def test_jacobian_command(capsys):
    code, out, _ = run(capsys, "--input", data_path("o_minus_1"),
                       "--command", "jacobian", "--cutoff", "3", "--ring", "q")
    assert code == 0
    assert "free: True" in out
    assert "dim_quotient: 6" in out


def test_jacobian_with_perturbation_file(tmp_path, capsys):
    pert = [[], [{"lambda": "5/2", "nu": [2, 2], "coeff": "1"}], []]
    pfile = tmp_path / "pert.json"
    pfile.write_text(json.dumps(pert))
    code, out, _ = run(capsys, "--input", data_path("o_minus_1"),
                       "--command", "jacobian", "--cutoff", "2",
                       "--perturb", str(pfile))
    assert code == 0
    assert "free: True" in out


def test_jacobian_bfield(capsys):
    code, out, _ = run(capsys, "--input", data_path("cp1"),
                       "--command", "jacobian", "--cutoff", "2",
                       "--bfield", "2,1/3")
    assert code == 0
    assert "free: True" in out


# Bad command lines: each exits with its documented code and a one-line
# error, never a traceback.
BAD_ARGUMENTS = [
    ("cp1", "jacobian", ("--cutoff", "abc"), 2),
    ("cp1", "jacobian", ("--cutoff", "1/0"), 2),
    ("cp2", "cm", ("--ring", "fp:x"), 2),
    ("cp2", "cm", ("--ring", "fp:4"), 2),
    ("cp2", "classical", ("--ring", "fp:6"), 2),
    ("cp1", "jacobian", ("--ring", "fp:1"), 2),
    ("cp1", "jacobian", ("--perturb", "/nonexistent/perturbation.json"), 2),
    ("cp2", "quantum", ("--margin", "-5"), 2),
    ("cp1", "jacobian", ("--bfield", "2"), 2),
    ("cp1", "jacobian", ("--bfield=1,x",), 2),
    ("hirzebruch_f2", "quantum", (), 3),
    ("o_minus_1", "invert", (), 3),
    ("cp1", "jacobian", ("--ring", "fp:3", "--bfield=1/3,1"), 3),
    ("cp1", "jacobian", ("--ring", "fp:3", "--bfield=3,1"), 3),
    ("cp1", "jacobian", ("--ring", "fp:3", "--perturb", "THIRD"), 3),
    ("BOOL_NORMAL", "validate", (), 2),
    ("BOOL_DIM", "validate", (), 2),
    ("BOOL_OFFSET", "validate", (), 2),
    ("cp1", "jacobian", ("--perturb", "BOOL_NU"), 2),
    ("cp1", "jacobian", ("--perturb", "FLOAT_LAMBDA"), 2),
    ("cp1", "jacobian", ("--perturb", "FLOAT_COEFF"), 2),
    ("NOT_UTF8", "validate", (), 2),
    ("DEEP", "validate", (), 2),
    ("cp1", "jacobian", ("--perturb", "NOT_UTF8"), 2),
    ("cp1", "jacobian", ("--perturb", "DEEP"), 2),
    ("cp2", "bogus", (), 2),
    ("cp2", "validate", ("--format", "xml"), 2),
    ("cp2", "quantum", ("--margin", "abc"), 2),
    ("cp2", "quantum", ("--margin",), 2),
    ("cp2", "validate", ("--extra", "1"), 2),
    ("cp1", "jacobian", ("--cut", "2"), 2),
    ("non_delzant", "jacobian", ("--perturb", "NU_DOWN"), 3),
    ("cp2", "cm", ("--ring", "fp:²"), 2),
    ("cp2", "classical", ("--ring", "fp:" + "1" * 5000), 2),
    # options that the command does not read are checked all the same
    ("cp2", "classical", ("--cutoff", "abc"), 2),
    ("cp2", "validate", ("--margin", "-5"), 2),
    ("cp2", "audit", ("--bfield", "x"), 2),
    ("cp2", "classical", ("--bfield", "1,1"), 2),
    ("BOM", "validate", (), 2),
    ("cp1", "jacobian", ("--perturb", "BOM"), 2),
    # every schema branch of parse_polyhedron and polyhedron
    ("TOP_LIST", "validate", (), 2),
    ("NO_FACETS_KEY", "validate", (), 2),
    ("FACETS_NOT_LIST", "validate", (), 2),
    ("NO_OFFSET", "validate", (), 2),
    ("DIM_ZERO", "validate", (), 2),
    ("SHORT_NORMAL", "validate", (), 2),
    ("EMPTY_FACETS", "validate", (), 2),
    # a perturbation file is a list with one entry per facet, nothing else
    ("cp2", "jacobian", ("--cutoff", "3", "--perturb", "WRAPPED"), 2),
    ("cp2", "jacobian", ("--cutoff", "3", "--perturb", "TWO_OF_THREE"), 2),
]

# Files written into tmp_path; a row names one by its key, as the input or
# as an argument.  JSON true is not an integer and floats are not exact.
# Bytes are written as they are: not UTF-8, valid JSON after a UTF-8
# byte-order mark, or nested past the decoder's recursion limit.
SEGMENT = [{"normal": [1], "offset": 1}, {"normal": [-1], "offset": 1}]
PERTURB_CP2 = [[], [{"lambda": "3", "nu": [1, 1], "coeff": "1/2"}], []]
FILES = {
    # a perturbation of cp1 with coefficient 1/3, undefined modulo 3
    "THIRD": [[{"lambda": "2", "nu": [0], "coeff": "1/3"}], []],
    "BOOL_NORMAL": {"dim": 1, "facets": [{"normal": [True], "offset": 1},
                                         SEGMENT[1]]},
    "BOOL_DIM": {"dim": True, "facets": SEGMENT},
    "BOOL_OFFSET": {"dim": 1, "facets": [{"normal": [1], "offset": True},
                                         SEGMENT[1]]},
    "BOOL_NU": [[{"lambda": "2", "nu": [True], "coeff": "1"}], []],
    "FLOAT_LAMBDA": [[{"lambda": 2.5, "nu": [0], "coeff": "1"}], []],
    "FLOAT_COEFF": [[{"lambda": "2", "nu": [0], "coeff": 0.5}], []],
    # a perturbation of non_delzant whose nu no vertex cone spans over Z
    "NU_DOWN": [[{"lambda": "2", "nu": [0, -1], "coeff": "1"}], [], []],
    "NOT_UTF8": b"\xff\xfe",
    "BOM": b"\xef\xbb\xbf" + json.dumps(
        {"dim": 1, "facets": SEGMENT}).encode(),
    "DEEP": b"[" * 100_000 + b"]" * 100_000,
    "TOP_LIST": [{"dim": 1, "facets": SEGMENT}],
    "NO_FACETS_KEY": {"dim": 2},
    "FACETS_NOT_LIST": {"dim": 1, "facets": 3},
    "NO_OFFSET": {"dim": 1, "facets": [{"normal": [1]}, SEGMENT[1]]},
    "DIM_ZERO": {"dim": 0, "facets": SEGMENT},
    "SHORT_NORMAL": {"dim": 2, "facets": SEGMENT},
    "EMPTY_FACETS": {"dim": 2, "facets": []},
    # a valid perturbation of cp2, wrapped in an object
    "WRAPPED": {"perturbations": PERTURB_CP2},
    "TWO_OF_THREE": PERTURB_CP2[:2],
}


@pytest.mark.parametrize("name,command,args,expected", BAD_ARGUMENTS)
def test_bad_arguments_exit_codes(tmp_path, capsys, name, command, args,
                                  expected):
    paths = {}
    for key, content in FILES.items():
        path = tmp_path / f"{key.lower()}.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(json.dumps(content))
        paths[key] = str(path)
    args = [paths.get(a, a) for a in args]
    code, out, err = run(capsys, "--input", paths.get(name) or data_path(name),
                         "--command", command, *args)
    assert code == expected
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("ring", ["bogus", "fp:4"])
@pytest.mark.parametrize("command", cli.COMMANDS)
def test_every_command_checks_the_ring(capsys, command, ring):
    code, out, err = run(capsys, "--input", data_path("cp2"),
                         "--command", command, "--ring", ring)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [[], ["--input", data_path("cp1")]])
def test_missing_required_option(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bfield_value_may_start_with_a_minus(capsys):
    outs = []
    for bfield in (("--bfield", "-1,2"), ("--bfield=-1,2",)):
        code, out, _ = run(capsys, "--input", data_path("cp1"),
                           "--command", "jacobian", *bfield)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert "rho: -1, 2" in outs[0]


def test_last_repeated_option_wins(capsys):
    code, out, _ = run(capsys, "--input", data_path("cp1"), "--command",
                       "validate", "--format", "text", "--format=json")
    assert code == 0
    assert json.loads(out)["command"] == "validate"


def test_help_names_every_option_and_command(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0
    assert err == ""
    for name in cli.OPTIONS:
        assert f"--{name}" in out
    for command in cli.COMMANDS:
        assert command in out


def test_cli_does_not_import_argparse():
    # parsing the command line must not pull in argparse, nor gettext
    # (which imports locale) through it
    import toricqh
    env = dict(os.environ,
               PYTHONPATH=str(Path(toricqh.__file__).resolve().parents[1]))
    code = ("import contextlib, io, sys\n"
            "from toricqh import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cli.main(['--input', {data_path('cp1')!r}, "
            "'--command', 'validate'])\n"
            "print(code, sorted({'argparse', 'gettext'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.stdout == "0 []\n", proc.stderr


def test_cli_does_not_import_catalog():
    # the command line never reads the example corpus, so importing it
    # leaves toricqh.catalog (and importlib.resources with it) unloaded;
    # the package still gives it, and every public name, on access
    import toricqh
    env = dict(os.environ,
               PYTHONPATH=str(Path(toricqh.__file__).resolve().parents[1]))
    code = ("import sys\n"
            "import toricqh.cli\n"
            "loaded = 'toricqh.catalog' in sys.modules\n"
            "import toricqh\n"
            "names = [toricqh.catalog.example_names()[0], "
            "toricqh.polyhedron.__name__]\n"
            "from toricqh import catalog\n"
            "print(loaded, names, catalog is toricqh.catalog)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.stdout == "False ['c1', 'polyhedron'] True\n", proc.stderr
    with pytest.raises(AttributeError, match="no attribute 'bogus'"):
        toricqh.bogus


def test_quantum_bfield_keeps_the_basis(tmp_path, capsys):
    # P(O + O(2)) over the projective plane
    path = tmp_path / "p_o_o2.json"
    normals = ([1, 0, 0], [0, 1, 0], [-1, -1, 2], [0, 0, 1], [0, 0, -1])
    path.write_text(json.dumps(
        {"dim": 3, "facets": [{"normal": nu, "offset": "1"} for nu in normals]}))
    bases = []
    for extra in ((), ("--bfield=2,1,1,1,1",)):
        code, out, _ = run(capsys, "--input", str(path), "--command",
                           "quantum", "--format", "json", *extra)
        assert code == 0
        bases.append(json.loads(out)["basis"])
    assert bases[0] == bases[1] == ["1", "v5", "v3", "v3*v5", "v3^2",
                                    "v3^2*v5"]


def test_only_quantum_and_jacobian_read_the_bfield_values(capsys):
    """A well-formed ``--bfield`` of the right length that is no unit
    rescaling is refused by the commands that read it (exit 3) and
    ignored by the others, whose reports it leaves unchanged."""
    for command in ("validate", "classical", "cm", "invert", "audit",
                    "quantum", "jacobian"):
        plain = run(capsys, "--input", data_path("cp2"), "--command", command)
        code, out, err = run(capsys, "--input", data_path("cp2"),
                             "--command", command, "--bfield=0,1,1")
        if command in ("quantum", "jacobian"):
            assert code == 3 and out == "" and err.count("\n") == 1
        else:
            assert (code, out, err) == plain and code == 0, command


def test_bfield_wrong_length(capsys):
    code, _, err = run(capsys, "--input", data_path("cp1"),
                       "--command", "jacobian", "--bfield", "2")
    assert code == 2


def test_audit_command(capsys):
    code, out, _ = run(capsys, "--input", data_path("o_minus_1"),
                       "--command", "audit")
    assert code == 0
    assert "passed: True" in out


def test_json_output_deterministic(capsys):
    _, out1, _ = run(capsys, "--input", data_path("cp2"),
                     "--command", "classical", "--format", "json")
    _, out2, _ = run(capsys, "--input", data_path("cp2"),
                     "--command", "classical", "--format", "json")
    assert out1 == out2
    json.loads(out1)  # valid JSON


def test_json_round_trip_input(tmp_path, capsys):
    # the input block of a JSON report re-ingests to the identical report
    _, out1, _ = run(capsys, "--input", data_path("cp1xcp1"),
                     "--command", "classical", "--format", "json")
    report = json.loads(out1)
    refile = tmp_path / "re.json"
    refile.write_text(json.dumps(report["input"]))
    _, out2, _ = run(capsys, "--input", str(refile),
                     "--command", "classical", "--format", "json")
    assert out1 == out2


# sha256 of every JSON report of the sweep below.  The reports are meant to be
# byte-identical across refactors of the elimination engine; a changed digest
# means a changed basis, structure constant or rank.
SWEEP_DIGESTS = {
    ("c1", "validate"): "63bc95a14f6140d8266c8394b1f97af4338bc423949ed24bcfbe38e1c09a522d",
    ("c1", "classical"): "cc16a563fdae71906e3450913b1a446f4c7c390937bc51d9ee2d3b1915c8dfc4",
    ("c1", "cm"): "fd422dc57d889ebbb7cbc5c3f45b7bddca508ce138c7f5fe62b0400c8ce313df",
    ("c1", "quantum"): "1b0537f5fd7ba7bc6bb6c64b425fba1ee21c5985f071d2d24c44c26f48c455b1",
    ("c2", "validate"): "242de5e0da2f519aca118b1c66e5a863f91cafa5884d013a8d72222a48164b5c",
    ("c2", "classical"): "80b41411b202f22b8c5ef84f580e23046553cba144ef2fb3ea67c8569b8cd83a",
    ("c2", "cm"): "6fe7bf1bdff6b87784f8686a243f68a27c8c7594bdeffeea6c0e6da90547c4a9",
    ("c2", "quantum"): "25228527a495f964edbfd26e011e483aaee172f178641bc67bd1b7d45d1a8594",
    ("c3", "validate"): "7bf79eb60afff740b655ac7791ebe88fcee97816eeec588ca39287d36dfba130",
    ("c3", "classical"): "c7e24b293674cea7495af56982300455f7685c105e497018bf951d280efd46ca",
    ("c3", "cm"): "88fe573d265dec0af4febf6910f84b399f084cbd881b37b78c33fba5b3818d5b",
    ("c3", "quantum"): "8f814b12520f792063d3ad552210cc64ba1d195394e98f622dcea8b11b8ed69f",
    ("cp1", "validate"): "68bf1cabf642943ae4064bfd9596d1d9928b5b52d0f1bc24bd3918984b0b2722",
    ("cp1", "classical"): "a7b51fe8ebdd52b7223c3e9cd20a70bcdd3a8c2318635f15bb2c83a9e79e70be",
    ("cp1", "cm"): "9288e997fbe605f462587a2c5c348bc63792efa858ed096c0963b4c1d50ac996",
    ("cp1", "quantum"): "b756f3a7282b6e8dbac36b97accea413989a4f21b21a572fb8991e0b61b48a06",
    ("cp1", "invert"): "302d1be3c15ca195bb17db6aecf7729928ea163bc6019c4cc976d7aab88d3939",
    ("cp2", "validate"): "66dc95e2e0a692f3705839cc66db061f8d6a9ba357ffc23b7b5d518407f7d226",
    ("cp2", "classical"): "fe6ed184f2cc1b5421b17bc4957f704fd9eac538fe80aa1a670c3b8b722c5640",
    ("cp2", "cm"): "eb140f3edd2e802d3e38e279a49b86e08dda061604183cfb8b8c9993e2ac8cb6",
    ("cp2", "quantum"): "546c3e01ffab4233ea32536946e3716d389fb29da955bc739c583065a26c4701",
    ("cp2", "invert"): "4ccb5632df437baf11a4db90a6db5a498be7d6731b8239a3b8ac5455877b4dba",
    ("cp3", "validate"): "09d2ca30710fcdb88a1e982ef1bc74d4dfba3132df9a256d39c32ecb273a20ff",
    ("cp3", "classical"): "c11778a6e19e67127ecaec069be555870e43d0905369d59ff59a32b24cda9efd",
    ("cp3", "cm"): "4237ea486e825e15d349a0eba4b2dcc843438dbe4286cd39b97bd38967e82356",
    ("cp3", "quantum"): "c2b5545742f48cd2e28cd5581ec271de769806f7427a8187fa695807c28dc1ba",
    ("cp3", "invert"): "4cb613625ad8c25e215368f1724c7200b15caca6bcf3169228659899bc8334d2",
    ("cp1xcp1", "validate"): "04a039857a4765243cec6030cc578d94baf5fd96073cee3c0bd02dbefc57627d",
    ("cp1xcp1", "classical"): "0cbe04504d134a3902bbd329870b173d2da1bd43bbaf1dbd84cb1457937a1658",
    ("cp1xcp1", "cm"): "ae927090c5ce0390565556511d79173ac81ba68586c0ed33efc3d75d0f39fa87",
    ("cp1xcp1", "quantum"): "0908afe4910860f2d3ab3eb508a439704bd72f63ed203eb8f0889d3a358652c8",
    ("cp1xcp1", "invert"): "e8457e8ddc11843deaaba9b6a002d908ad33b94a77c510314662a16a5ca049a8",
    ("o_minus_1", "validate"): "5df9ba0effd5d58c3409ea263539aadf4466b3199b0c5828ecc1ac324f17f801",
    ("o_minus_1", "classical"): "61819a5485d5131df8f0ea7e8b73f53d4bd98b68ee384c7bb1f630ebef19c92f",
    ("o_minus_1", "cm"): "1c02aee77822187d43f977d08bb8a7131b872ee97bf3455fbd3d856f30a2e9d5",
    ("o_minus_1", "quantum"): "959468f6eaef0bfd998cd0738f33b49d3103d735de7cc70bbacd468149758a12",
    ("hirzebruch_f2", "validate"): "f942079d2fd27774ec63a89844486fc540f4c70b9d031bcdd935b87995322c0c",
    ("hirzebruch_f2", "classical"): "a00db8eab49cff108f1bdd4339f653ec0e667177200a3860d5aa50614acd9df9",
    ("hirzebruch_f2", "cm"): "2a8a0891423c03d30135e7d6e2749561c4f245bc2260d2235898e1226416f027",
    ("hirzebruch_f2", "invert"): "701c7e3a05280363981b228037b432d798c34c1676fd8f7dd83f0ef9f0e7fc56",
}


def test_sweep_all_examples(capsys):
    from toricqh import catalog
    from toricqh.polyhedra import is_compact, monotone_normalization
    for name in catalog.VALID_EXAMPLES:
        P = catalog.load_example(name)
        plan = ["validate", "classical", "cm"]
        if monotone_normalization(P) is not None:
            plan.append("quantum")
        if is_compact(P):
            plan.append("invert")
        for command in plan:
            code, out, err = run(capsys, "--input", data_path(name),
                                 "--command", command, "--format", "json")
            assert code == 0, (name, command, err)
            json.loads(out)
            digest = hashlib.sha256(out.encode()).hexdigest()
            assert digest == SWEEP_DIGESTS[name, command], (name, command)


def test_quantum_margin_flag(capsys):
    code, out, _ = run(capsys, "--input", data_path("cp1"),
                       "--command", "quantum", "--margin", "2")
    assert code == 0
    assert "verified_ranks_by_t_degree: 1, 2, 2, 2, 2" in out


@pytest.mark.parametrize("name, command, fmt, expected", [
    ("cp2", "quantum", "json", 0),
    ("cp2", "cm", "text", 0),
    ("non_delzant", "validate", "json", 4),
])
def test_closed_stdout_keeps_the_exit_code(name, command, fmt, expected):
    # as in `toricqh ... | true`: the reader is gone before the report is
    # written, which must neither change the exit code nor print a traceback
    import toricqh
    env = dict(os.environ,
               PYTHONPATH=str(Path(toricqh.__file__).resolve().parents[1]))
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "toricqh", "--input", data_path(name),
             "--command", command, "--format", fmt],
            stdout=w, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(w)
    assert proc.returncode == expected
    assert proc.stderr == b""


# The report writers against the reference ones (``reference.json_report``
# and ``reference.text_report``), byte for byte, on the report the command
# line asks for.
def reference_outputs(argv):
    """(JSON text, text form) of the report of ``argv`` by the reference
    writers, or ("", "") when the command raises."""
    args = cli.parse_args(argv)
    P = parse_polyhedron(json.loads(Path(args.input).read_text()))
    try:
        report, _ = cli._DISPATCH[args.command](P, args)
    except (PreconditionError, VerificationError):
        return "", ""
    report["input"] = polyhedron_to_json(P)
    return reference.json_report(report), reference.text_report(report)


def assert_reports_match_the_reference(capsys, argv):
    outs = [run(capsys, *argv, "--format", fmt)[1] for fmt in ("json", "text")]
    assert tuple(outs) == reference_outputs(argv)


@pytest.mark.parametrize("command", cli.COMMANDS)
@pytest.mark.parametrize("name", catalog.VALID_EXAMPLES)
def test_reports_match_the_reference_writers(capsys, name, command):
    assert_reports_match_the_reference(
        capsys, ["--input", data_path(name), "--command", command])


@pytest.mark.parametrize("args", [
    ("--input", data_path("cp2"), "--command", "quantum", "--bfield=2,-1,1/3"),
    ("--input", data_path("cp2"), "--command", "quantum", "--margin", "1"),
    ("--input", data_path("cp3"), "--command", "quantum",
     "--bfield=2,-1,1/3,1", "--ring", "q"),
    ("--input", data_path("cp2"), "--command", "jacobian", "--cutoff", "3",
     "--perturb", "PERTURB"),
])
def test_option_reports_match_the_reference_writers(tmp_path, capsys, args):
    perturb = tmp_path / "perturb.json"
    perturb.write_text(json.dumps(
        [[], [{"lambda": "3", "nu": [1, 1], "coeff": "1/2"}], []]))
    assert_reports_match_the_reference(
        capsys, [str(perturb) if a == "PERTURB" else a for a in args])


HAND_BUILT_REPORTS = [
    {},
    {"empty": [], "nested": [[], {}, [[]], {"a": {}}], "none": None},
    {"H10": [Fraction(-3, 4), Fraction(4, 2), Fraction(-6, 3), Fraction(5)],
     "H2": {"x": Fraction(1, 3), "y": [Fraction(-7, 2), 0]}},
    {"flags": [True, 1, False, 0], "flag": True, "count": -12},
    {"text": "h\u00e9llo \u2603 \U0001f600 \x00\x1f\n\t\"\\ /",
     "caf\u00e9": ["\x7f", "", "p/q"]},
    {"rows": [[1, -2, Fraction(1, 3)], [Fraction(0)]],
     "table": [[{"k": [Fraction(2, 4)]}]], "tuples": [(1, (2, ()))]},
]


@pytest.mark.parametrize("report", HAND_BUILT_REPORTS)
def test_hand_built_reports_match_the_reference_writers(report):
    assert cli._json_text(report) == reference.json_report(report)
    assert cli._render_text(report) == reference.text_report(report)


def test_writer_refuses_what_a_report_cannot_hold():
    for value in (0.5, {1: 2}, {"a"}):
        with pytest.raises(TypeError):
            cli._json_text({"x": [value]})


def test_cm_refuses_a_nerve_of_the_wrong_dimension(cp2, monkeypatch, capsys):
    """A passing regular-sequence check reads the nerve's homology off the
    h-vector only for a nerve of dimension n - 1 (planted: the nerve is
    the full simplex on the facets, with the passing check of CP^2)."""
    from toricqh import topology as tp
    passing = tp.regular_sequence_check(cp2)
    monkeypatch.setattr(tp, "regular_sequence_check", lambda P, p: passing)
    monkeypatch.setattr(tp, "build_nerve", lambda P: tp.make_complex(
        P.nfacets, [range(1, P.nfacets + 1)]))
    args = cli.parse_args(["--input", data_path("cp2"), "--command", "cm"])
    with pytest.raises(VerificationError,
                       match="the nerve has dimension 2, not 1"):
        cli.cmd_cm(cp2, args)
    code, out, err = run(capsys, "--input", data_path("cp2"), "--command",
                         "cm")
    assert (code, out) == (4, "")
    assert err == "error: the nerve has dimension 2, not 1\n"


OUT_OF_MEMORY = ("error: out of memory: the input needs more memory than "
                 "this process may use\n")


def test_out_of_memory_is_one_error_line(monkeypatch, capsys):
    def exhausted(P, args):
        raise MemoryError
    monkeypatch.setitem(cli._DISPATCH, "jacobian", exhausted)
    code, out, err = run(capsys, "--input", data_path("cp2"), "--command",
                         "jacobian")
    assert (code, out, err) == (3, "", OUT_OF_MEMORY)


def test_unbounded_jacobian_slice_ends_cleanly_out_of_memory(tmp_path):
    """The 3-d, 6-facet input whose first slice at cutoff 2 walks about
    2.7 M monomials: under a 300 MB address-space limit it runs out of
    memory and exits 3 with one error line, not a traceback."""
    import resource
    import toricqh
    facets = [((0, 0, 1), "1/2"), ((0, -1, -2), "1/2"), ((1, 0, 0), "1/2"),
              ((1, -1, -1), "1"), ((2, -1, 0), "15/8"),
              ((4, -2, -1), "53/16")]
    path = tmp_path / "unbounded.json"
    path.write_text(json.dumps({"dim": 3, "facets": [
        {"normal": list(nu), "offset": lam} for nu, lam in facets]}))
    limit = 300 << 20
    env = dict(os.environ,
               PYTHONPATH=str(Path(toricqh.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "toricqh", "--input", str(path), "--command",
         "jacobian", "--cutoff", "2"],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (limit, limit)))
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "",
                                                          OUT_OF_MEMORY)


# Python caps int <-> decimal string conversions at 4,300 digits by default
# (from 3.10.7 on); ``cli.main`` lifts the cap for its process.
BIG_A = 7 ** 2959   # 2,501 digits each, coprime, so a/b and b/a are reduced
BIG_B = 3 ** 5240
BIG_NORMAL = "1" + "0" * 5000


@pytest.fixture
def digit_limit():
    """The default cap, as in a fresh process, whatever an earlier
    ``cli.main`` in this process set; the cap before is restored after."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield
    sys.set_int_max_str_digits(limit)


def _big_offset_triangle(tmp_path):
    path = tmp_path / "big_offsets.json"
    path.write_text(json.dumps({"dim": 2, "facets": [
        {"normal": [1, 0], "offset": f"{BIG_A}/{BIG_B}"},
        {"normal": [0, 1], "offset": f"{BIG_B}/{BIG_A}"},
        {"normal": [-1, -1], "offset": 1}]}))
    return path


def _big_normal(tmp_path):
    path = tmp_path / "big_normal.json"
    path.write_text('{"dim": 1, "facets": [{"normal": [%s], "offset": 1}, '
                    '{"normal": [-1], "offset": 1}]}' % BIG_NORMAL)
    return path


def test_values_past_the_digit_limit_are_exact(tmp_path, capsys,
                                               digit_limit):
    # offsets a/b, b/a, 1: lambda + <b, nu_j> = lambda_j gives the common
    # offset (a/b + b/a + 1) / 3, of more than 4,300 digits
    assert len(str(BIG_A)) == len(str(BIG_B)) == 2501
    path = _big_offset_triangle(tmp_path)
    lam1, lam2 = Fraction(BIG_A, BIG_B), Fraction(BIG_B, BIG_A)
    code, out, err = run(capsys, "--input", str(path), "--command",
                         "validate", "--format", "json")
    assert (code, err) == (0, "")
    offset = (lam1 + lam2 + 1) / 3
    assert len(str(offset.numerator)) > 4300
    mono = json.loads(out)["monotone"]
    assert Fraction(mono["offset"]) == offset
    assert [Fraction(x) for x in mono["translation"]] == [lam1 - offset,
                                                         lam2 - offset]
    for command in ("quantum", "invert", "jacobian"):
        code, out, err = run(capsys, "--input", str(path), "--command",
                             command, "--format", "json")
        assert (code, err) == (0, ""), command
        assert json.loads(out)["input"]["facets"][0]["offset"] == \
            f"{BIG_A}/{BIG_B}"
    code, out, err = run(capsys, "--input", str(_big_normal(tmp_path)),
                         "--command", "validate")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: facet 1: normal")


@pytest.mark.parametrize("make, code, errors", [(_big_offset_triangle, 0, 0),
                                                (_big_normal, 2, 1)])
def test_values_past_the_digit_limit_in_a_new_process(tmp_path, make, code,
                                                      errors):
    import toricqh
    env = dict(os.environ,
               PYTHONPATH=str(Path(toricqh.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "toricqh", "--input", str(make(tmp_path)),
         "--command", "validate", "--format", "json"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == code
    assert proc.stderr.count("\n") == errors
    assert "Traceback" not in proc.stderr
