import argparse
import contextlib
import io
import itertools
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dualkit.cli as cli
from dualkit.algebras import DEFAULT_BUDGET
from dualkit.catalog import dl2
from dualkit.corpus import CriterionResult
from dualkit.fileformat import serialize_algebra, serialize_space, space_document
from dualkit.fileformat import AlgebraDocument
from dualkit.spaces import lspace
from dualkit.topology import discrete_topology

PRIESTLEY_DOC = """\
kind: constrained-2
dualizer: builtin:dl2
points: ["x", "y"]
constraint ["x"]: [["0"], ["1"]]
constraint ["y"]: [["0"], ["1"]]
constraint ["x", "y"]: [["0", "0"], ["0", "1"], ["1", "1"]]
"""

BROKEN_TRIANGLE = """\
kind: constrained-2
dualizer: builtin:dl2
points: ["x", "y", "z"]
constraint ["x", "y"]: [["0", "0"], ["0", "1"], ["1", "1"]]
constraint ["y", "z"]: [["0", "0"], ["0", "1"], ["1", "1"]]
constraint ["x", "z"]: [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]]
"""


# a pair key in a ternary document on four points, where only 3-sets and
# points are stored
INTERMEDIATE_KEY = "".join(
    ["kind: constrained-3\ndualizer: builtin:dl2\npoints: [\"a\", \"b\", \"c\", \"d\"]\n"]
    + ["constraint %s: %s\n" % (json.dumps(list(key)), json.dumps(
        [[str(v) for v in f] for f in itertools.product((0, 1), repeat=3)]))
       for key in itertools.combinations("abcd", 3)]
    + ['constraint ["a", "b"]: [["0", "0"], ["1", "1"]]\n'])

UNARY_OK = """\
kind: constrained-unary
dualizer: builtin:luk(2)
points: ["a", "b", "c", "d"]
opens: [["a", "b"], ["c"], ["d"]]
fibers: [["0", "1"], ["0", "1"], ["0", "1/2", "1"], ["0", "1/2", "1"]]
equiv: [["a", "b"], ["c", "d"]]
"""

UNARY_BROKEN = """\
kind: constrained-unary
dualizer: builtin:luk(2)
points: ["a", "b", "c"]
fibers: [["0", "1"], ["0", "1/2", "1"], ["0", "1/2", "1"]]
equiv: [["a", "b"], ["c"]]
"""

# what comp, lep, gep and func print on the two unary documents, recorded
# when the search still had a separate unary branch
UNARY_OUTPUTS = {
    ("ok", "comp"): (0, """\
count: 6
functions: [["0", "0", "0", "0"], ["0", "0", "1/2", "1/2"], ["0", "0", "1", "1"], \
["1", "1", "0", "0"], ["1", "1", "1/2", "1/2"], ["1", "1", "1", "1"]]
"""),
    ("ok", "lep"): (0, "arity: 2\nlocal_extension: True\n"),
    ("ok", "gep"): (0, "global_extension: True\ncompatible_functions: 6\n"),
    ("ok", "func"): (0, """\
kind: lspace
dualizer: builtin:luk(2)
points: ["a", "b", "c", "d"]
opens: [[], ["a", "b"], ["a", "b", "c"], ["a", "b", "c", "d"], ["a", "b", "d"], ["c"], \
["c", "d"], ["d"]]
comp: [["0", "0", "0", "0"], ["0", "0", "1", "1"], ["0", "0", "1/2", "1/2"], \
["1", "1", "0", "0"], ["1", "1", "1", "1"], ["1", "1", "1/2", "1/2"]]
"""),
    ("broken", "comp"): (0, """\
count: 6
functions: [["0", "0", "0"], ["0", "0", "1/2"], ["0", "0", "1"], ["1", "1", "0"], \
["1", "1", "1/2"], ["1", "1", "1"]]
"""),
    ("broken", "lep"): (1, "arity: 2\nlocal_extension: False\nwitness: ((1,), 0, (1,))\n"),
    ("broken", "gep"): (1, """\
global_extension: False
compatible_functions: 6
witness: ((1,), (1,))
"""),
    ("broken", "func"): (0, """\
kind: lspace
dualizer: builtin:luk(2)
points: ["a", "b", "c"]
comp: [["0", "0", "0"], ["0", "0", "1"], ["0", "0", "1/2"], ["1", "1", "0"], \
["1", "1", "1"], ["1", "1", "1/2"]]
"""),
}


# twenty points, each alone in its class, whose fibers are all of luk(999):
# the searches stop at their budget, and no pair constraint (10^6 pairs for
# each of the 190 pairs of points) is built before the budget is charged
WIDE_UNARY = "".join([
    "kind: constrained-unary\ndualizer: builtin:luk(999)\n",
    "points: %s\n" % json.dumps(["p%d" % i for i in range(20)]),
    "fibers: %s\n" % json.dumps([[str(Fraction(i, 999)) for i in range(1000)]] * 20),
    "equiv: %s\n" % json.dumps([["p%d" % i] for i in range(20)]),
])


@pytest.fixture
def priestley_file(tmp_path):
    path = tmp_path / "chain.dk"
    path.write_text(PRIESTLEY_DOC)
    return str(path)


@pytest.fixture
def lspace_file(tmp_path):
    X = lspace(discrete_topology(2), dl2().algebra, [(0, 0), (0, 1), (1, 1)])
    path = tmp_path / "space.dk"
    path.write_text(serialize_space(space_document(X, "builtin:dl2", points=("x", "y"))))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_of_builtin(capsys, tmp_path):
    path = tmp_path / "dl2.dk"
    path.write_text(serialize_algebra(AlgebraDocument("dl2", dl2().algebra, ("0", "1"))))
    code, out, _ = run(capsys, "spectrum", str(path), "--dualizer", "builtin:dl2")
    assert code == 0
    assert "points: 1" in out


def test_spectrum_json_mirrors_text(capsys, tmp_path):
    path = tmp_path / "dl2.dk"
    path.write_text(serialize_algebra(AlgebraDocument("dl2", dl2().algebra, ("0", "1"))))
    code, out, _ = run(capsys, "spectrum", str(path), "--dualizer", "builtin:dl2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["points"] == 1
    assert payload["homs"] == [["0", "1"]]


def test_comp_of_constrained_space(capsys, priestley_file):
    code, out, _ = run(capsys, "comp", priestley_file)
    assert code == 0
    assert "count: 3" in out


def test_gep_pass_and_fail(capsys, priestley_file, tmp_path):
    code, out, _ = run(capsys, "gep", priestley_file)
    assert code == 0
    broken = tmp_path / "broken.dk"
    broken.write_text(BROKEN_TRIANGLE)
    code, out, _ = run(capsys, "gep", str(broken))
    assert code == 1
    assert "witness" in out


def test_lep_detects_intransitivity(capsys, tmp_path):
    broken = tmp_path / "broken.dk"
    broken.write_text(BROKEN_TRIANGLE)
    code, out, _ = run(capsys, "lep", str(broken), "--bound", "2")
    assert code == 1


def test_lep_budget_exits_two(capsys, priestley_file):
    code, _, err = run(capsys, "lep", priestley_file, "--budget", "1")
    assert code == 2
    assert "local extension search exceeds budget" in err
    code, _, _ = run(capsys, "lep", priestley_file)
    assert code == 0


def test_lep_rejects_a_negative_arity(capsys, priestley_file):
    # a negative arity used to pass vacuously and print local_extension: True
    code, out, err = run(capsys, "lep", priestley_file, "--bound", "-1")
    assert code == 2 and out == ""
    assert "local extension arity must be >= 0" in err
    code, out, _ = run(capsys, "lep", priestley_file, "--bound", "0")
    assert code == 0 and "local_extension: True" in out


def test_comp_budget_exits_two(capsys, priestley_file):
    code, _, err = run(capsys, "comp", priestley_file, "--budget", "1")
    assert code == 2
    assert "ccomp search exceeds budget" in err


def test_local2global_reports_consistent_verdicts(capsys, priestley_file):
    code, out, _ = run(capsys, "local2global", priestley_file)
    assert code == 0
    assert "theorem_holds: True" in out


# a pair set over luk(2) that is not a subuniverse, with both fibers full
OUTSIDE_THE_LEMMA = """\
kind: constrained-2
dualizer: builtin:luk(2)
points: ["x", "y"]
constraint ["x"]: [["0"], ["1/2"], ["1"]]
constraint ["y"]: [["0"], ["1/2"], ["1"]]
constraint ["x", "y"]: [["0", "1/2"], ["0", "1"], ["1/2", "1/2"], ["1/2", "1"], ["1", "0"], ["1", "1"]]
"""


def test_local2global_rejects_a_family_outside_the_lemma(capsys, tmp_path):
    # a possible-extension set that is not convex used to end in an
    # AssertionError traceback; the family fails the lemma's closedness
    path = tmp_path / "outside.dk"
    path.write_text(OUTSIDE_THE_LEMMA)
    error = "error: constraint for [0, 1] is not a subuniverse\n"
    assert run(capsys, "local2global", str(path)) == (2, "", error)
    assert run(capsys, "props", str(path)) == (2, "", error)


def test_roundtrip_algebra(capsys):
    code, out, _ = run(capsys, "roundtrip", "builtin:luk(2)", "--dualizer", "builtin:luk(2)")
    assert code == 0
    assert "ok: True" in out


def test_roundtrip_space(capsys, lspace_file):
    code, out, _ = run(capsys, "roundtrip", lspace_file)
    assert code == 0


def test_props_lspace(capsys, lspace_file):
    code, out, _ = run(capsys, "props", lspace_file)
    assert code == 0
    assert "separated: True" in out
    assert "full: True" in out


def test_endos_flags_reduct(capsys, tmp_path):
    from dualkit.catalog import luk, reduct
    doc = AlgebraDocument("halfluk",
                          reduct(luk(2).algebra, ("oplus", "meet", "join", "zero", "one")),
                          ("0", "1/2", "1"))
    path = tmp_path / "halfluk.dk"
    path.write_text(serialize_algebra(doc))
    code, out, _ = run(capsys, "endos", "--dualizer", str(path))
    assert code == 0
    assert "all_trivial: False" in out


def test_classify_sq(capsys):
    code, out, _ = run(capsys, "classify-sq", "--dualizer", "builtin:dl2")
    assert code == 0
    assert "only_subdiagonal_or_product: False" in out
    assert "count: 4" in out


def test_nu_search(capsys):
    code, out, _ = run(capsys, "nu-search", "--dualizer", "builtin:dl2", "--k", "2")
    assert code == 0
    assert "found: True" in out
    assert "term:" in out


def test_bp_check_witness_and_exit(capsys):
    code, out, _ = run(capsys, "bp-check", "--dualizer", "builtin:dl2",
                       "--k", "1", "--bound", "2")
    assert code == 1
    assert "witness" in out
    code, out, _ = run(capsys, "bp-check", "--dualizer", "builtin:bool2",
                       "--k", "1", "--bound", "3")
    assert code == 0


def test_bp_check_sampled_requires_seed(capsys):
    code, _, err = run(capsys, "bp-check", "--dualizer", "builtin:luk(2)",
                       "--strategy", "sampled")
    assert code == 2
    assert "seed" in err


def test_crp_check(capsys, tmp_path):
    from dualkit.algebras import direct_power
    square = direct_power(dl2().algebra, 2)
    path = tmp_path / "square.dk"
    path.write_text(serialize_algebra(AlgebraDocument("dlsq", square,
                                                      ("00", "01", "10", "11"))))
    code, out, _ = run(capsys, "crp-check", str(path), "--dualizer", "builtin:dl2",
                       "--k", "2", "--bound", "3")
    assert code == 0
    assert "passed: True" in out


@pytest.mark.parametrize("flags, error", [
    (["--k", "0"], "k must be >= 1"),
    (["--k", "-1"], "k must be >= 1"),
    (["--bound", "-1"], "bound must be >= 0"),
])
def test_crp_check_rejects_vacuous_arguments(capsys, tmp_path, flags, error):
    # k-wise solvability below k = 1 is vacuous, so every unsolvable system
    # read as a counterexample; a negative bound passed with no systems
    path = tmp_path / "dl2.dk"
    path.write_text(serialize_algebra(AlgebraDocument("dl2", dl2().algebra, ("0", "1"))))
    argv = ["crp-check", str(path), "--dualizer", "builtin:dl2"] + flags
    assert run(capsys, *argv) == (2, "", "error: %s\n" % error)


@pytest.mark.parametrize("flags, error", [
    (["--bound", "-1"], "bound must be >= 0"),
    (["--strategy", "sampled", "--seed", "1", "--samples", "-3"],
     "sampled sweeps need samples >= 0 and a bound >= 1"),
    (["--strategy", "sampled", "--seed", "1", "--bound", "0"],
     "sampled sweeps need samples >= 0 and a bound >= 1"),
])
def test_bp_check_rejects_vacuous_arguments(capsys, flags, error):
    argv = ["bp-check", "--dualizer", "builtin:dl2"] + flags
    assert run(capsys, *argv) == (2, "", "error: %s\n" % error)


@pytest.mark.parametrize("argv, error", [
    (["classify-sq", "--dualizer", "builtin:dl2", "--budget", "1"],
     "product carrier 4 exceeds budget 1"),
    (["endos", "--dualizer", "builtin:dl2", "--budget", "0"], "more than 0 subuniverses"),
])
def test_square_and_endomorphism_searches_stop_at_the_budget(capsys, argv, error):
    assert run(capsys, *argv) == (2, "", "error: %s\n" % error)


def test_crp_check_stops_at_the_budget(capsys, tmp_path):
    """The 4-element chain has 8 congruences, the partitions into intervals,
    and all are relative: the total one and the meets of the kernels of its
    3 homomorphisms into dl2, the last found past a budget of 7."""
    from dualkit.algebras import algebra_from_vectors
    steps = [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]
    chain = algebra_from_vectors(dl2().algebra, 3, steps)[0]
    path = tmp_path / "chain.dk"
    path.write_text(serialize_algebra(AlgebraDocument("chain4", chain, ("a", "b", "c", "d"))))
    argv = ["crp-check", str(path), "--dualizer", "builtin:dl2", "--budget"]
    assert run(capsys, *argv, "7") == (2, "", "error: congruence lattice exceeds budget\n")
    assert run(capsys, *argv, "8")[:2] == (0, "k: 2\nsystems: 6544\npassed: True\n")


def test_crp_check_on_the_square_stops_at_its_congruence_count(capsys, tmp_path):
    """The dl2 square has 4 relative congruences, the total one and the meets
    of the kernels of its 2 homomorphisms into dl2; ``relative_congruences``
    counts every one it finds, so budgets 1 to 3 stop it."""
    from dualkit.algebras import direct_power
    path = tmp_path / "square.dk"
    path.write_text(serialize_algebra(AlgebraDocument("dlsq", direct_power(dl2().algebra, 2),
                                                      ("00", "01", "10", "11"))))
    argv = ["crp-check", str(path), "--dualizer", "builtin:dl2", "--budget"]
    for budget in ("1", "3"):
        assert run(capsys, *argv, budget) == (2, "", "error: congruence lattice exceeds budget\n")
    code, out, _ = run(capsys, *argv, "4")
    assert code == 0 and "passed: True" in out


def test_jonsson_check(capsys, lspace_file):
    code, out, _ = run(capsys, "jonsson-check", lspace_file)
    assert code == 0


def test_congruences(capsys, tmp_path):
    from dualkit.algebras import direct_power
    square = direct_power(dl2().algebra, 2)
    path = tmp_path / "square.dk"
    path.write_text(serialize_algebra(AlgebraDocument("dlsq", square,
                                                      ("00", "01", "10", "11"))))
    code, out, _ = run(capsys, "congruences", str(path), "--dualizer", "builtin:dl2")
    assert code == 0
    assert "relative_congruences: 4" in out
    assert "anti_isomorphism: True" in out


# what congruences printed on the dl2 square before it found the relative
# congruences once and read its budget, and before it searched Hom(A, L) once
SQUARE_CONGRUENCES = {
    "text": 'relative_congruences: 4\npartitions: [[["00"], ["01"], ["10"], ["11"]], '
            '[["00", "10"], ["01", "11"]], [["00", "01"], ["10", "11"]], '
            '[["00", "01", "10", "11"]]]\nhypotheses_ok: True\nanti_isomorphism: True\n',
    "json": '{"relative_congruences": 4, "partitions": [[["00"], ["01"], ["10"], ["11"]], '
            '[["00", "10"], ["01", "11"]], [["00", "01"], ["10", "11"]], '
            '[["00", "01", "10", "11"]]], "hypotheses_ok": true, "anti_isomorphism": true}\n',
}


@pytest.mark.parametrize("fmt", sorted(SQUARE_CONGRUENCES))
@pytest.mark.parametrize("budget", [[], ["--budget", "4"]])
def test_congruences_prints_what_it_printed(capsys, tmp_path, fmt, budget, monkeypatch):
    from dualkit import algebras, properties
    calls, searched = [], []
    meets, search = properties._kernel_meets, algebras.enumerate_homs

    def counting(A, homs, budget):
        calls.append(budget)
        return meets(A, homs, budget)

    def searching(A, B, gens=None):
        searched.append((A.size, B.size))
        return search(A, B, gens)

    # the command searches Hom(A, L) once, for its relative congruences and
    # its spectrum check alike, and meets the kernels at its budget
    monkeypatch.setattr(properties, "_kernel_meets", counting)
    for module in ("algebras", "properties", "spaces"):
        monkeypatch.setattr("dualkit.%s.enumerate_homs" % module, searching)
    path = tmp_path / "square.dk"
    path.write_text(serialize_algebra(AlgebraDocument("dlsq", algebras.direct_power(
        dl2().algebra, 2), ("00", "01", "10", "11"))))
    assert run(capsys, "congruences", str(path), "--dualizer", "builtin:dl2",
               "--format", fmt, *budget) == (0, SQUARE_CONGRUENCES[fmt], "")
    assert calls == [int(budget[1]) if budget else 10**6]
    assert searched.count((4, 2)) == 1


def test_congruences_exits_two_past_its_budget(capsys, tmp_path):
    """The dl2 square has 4 congruences, and 2 homomorphisms to dl2, so 4
    subsets of Spec A; at budget 3 the congruence sweep stops first."""
    from dualkit.algebras import direct_power
    path = tmp_path / "square.dk"
    path.write_text(serialize_algebra(AlgebraDocument("dlsq", direct_power(dl2().algebra, 2),
                                                      ("00", "01", "10", "11"))))
    assert run(capsys, "congruences", str(path), "--dualizer", "builtin:dl2",
               "--budget", "3") == (2, "", "error: congruence lattice exceeds budget\n")


def test_cons_then_func_round_trip(capsys, lspace_file, tmp_path):
    code, out, _ = run(capsys, "cons", lspace_file, "--k", "2")
    assert code == 0
    constrained = tmp_path / "cons.dk"
    constrained.write_text(out)
    code, out2, _ = run(capsys, "func", str(constrained))
    assert code == 0
    assert "comp:" in out2


def test_cons_k1_gives_the_unary_form(capsys, lspace_file, tmp_path):
    code, out, _ = run(capsys, "cons", lspace_file, "--k", "1")
    assert code == 0
    assert "kind: constrained-unary" in out
    unary = tmp_path / "unary.dk"
    unary.write_text(out)
    code, out2, _ = run(capsys, "func", str(unary))
    assert code == 0
    assert "kind: lspace" in out2


@pytest.mark.parametrize("document, command", sorted(UNARY_OUTPUTS))
def test_unary_documents_print_what_the_unary_branch_printed(capsys, tmp_path,
                                                            document, command):
    path = tmp_path / "unary.dk"
    path.write_text(UNARY_OK if document == "ok" else UNARY_BROKEN)
    assert run(capsys, command, str(path))[:2] == UNARY_OUTPUTS[document, command]


@pytest.mark.parametrize("command, search", [("comp", "ccomp"), ("func", "ccomp"),
                                             ("gep", "ccomp"), ("lep", "local extension")])
def test_wide_unary_document_exits_two_at_the_budget(capsys, tmp_path, command, search):
    path = tmp_path / "wide.dk"
    path.write_text(WIDE_UNARY)
    assert run(capsys, command, str(path), "--budget", "20000") == (
        2, "", "error: %s search exceeds budget\n" % search)


@pytest.mark.parametrize("command", ["props", "comp"])
def test_intermediate_constraint_key_exits_two(capsys, tmp_path, command):
    path = tmp_path / "intermediate.dk"
    path.write_text(INTERMEDIATE_KEY)
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err == ("error: constraint key [0, 1] has 2 points; "
                   "stored keys have 3 or at most one\n")


# the pair set of a and b is the diagonal, the other two swap the values:
# neither is closed under meet, and a, c is the first of them in key order
NOT_CLOSED = """\
kind: constrained-2
dualizer: builtin:dl2
points: ["a", "b", "c"]
constraint ["a", "b"]: [["0", "0"], ["1", "1"]]
constraint ["a", "c"]: [["0", "1"], ["1", "0"]]
constraint ["b", "c"]: [["0", "1"], ["1", "0"]]
"""

SHORT_FUNCTION = """\
kind: constrained-2
dualizer: builtin:dl2
points: ["a", "b"]
constraint ["a", "b"]: [["0"]]
"""


def test_first_unclosed_constraint_is_named(capsys, tmp_path):
    path = tmp_path / "unclosed.dk"
    path.write_text(NOT_CLOSED)
    assert run(capsys, "props", str(path)) == (
        2, "", "error: constraint for [0, 2] is not a subuniverse\n")


def test_func_of_unclosed_constraints_exits_two(capsys, tmp_path):
    # its two compatible functions, (0, 0, 1) and (1, 1, 0), miss their meet
    path = tmp_path / "unclosed.dk"
    path.write_text(NOT_CLOSED)
    assert run(capsys, "func", str(path)) == (
        2, "", "error: compatible functions not closed under 'meet'\n")


@pytest.mark.parametrize("command", ["props", "comp", "lep"])
def test_short_local_function_exits_two(capsys, tmp_path, command):
    path = tmp_path / "short.dk"
    path.write_text(SHORT_FUNCTION)
    assert run(capsys, command, str(path)) == (
        2, "", "error: local function of wrong length for (0, 1)\n")


def test_priestley_both_directions(capsys, tmp_path, priestley_file):
    code, out, _ = run(capsys, "priestley", priestley_file)
    assert code == 0
    assert "kind: poset" in out
    poset = tmp_path / "poset.dk"
    poset.write_text(out)
    code, out2, _ = run(capsys, "priestley", str(poset))
    assert code == 0
    assert "kind: constrained-2" in out2


def test_mv_priestley(capsys, tmp_path):
    graded = [["0", "0"], ["0", "1/2"], ["0", "1"], ["1/2", "1/2"],
              ["1/2", "1"], ["1", "1"]]
    text = ("kind: constrained-2\ndualizer: builtin:posluk(2)\n"
            'points: ["x", "y"]\n'
            'constraint ["x"]: [["0"], ["1/2"], ["1"]]\n'
            'constraint ["y"]: [["0"], ["1/2"], ["1"]]\n'
            'constraint ["x", "y"]: %s\n' % json.dumps(graded))
    path = tmp_path / "mv.dk"
    path.write_text(text)
    code, out, _ = run(capsys, "mv-priestley", str(path))
    assert code == 0
    assert "valid: True" in out


def test_export_dot(capsys, priestley_file):
    code, out, _ = run(capsys, "export-dot", priestley_file)
    assert code == 0
    assert out.startswith("digraph")
    assert '"x" -> "y"' in out


def test_outputs_are_deterministic(capsys, priestley_file):
    _, first, _ = run(capsys, "export-dot", priestley_file)
    _, second, _ = run(capsys, "export-dot", priestley_file)
    assert first == second
    _, a, _ = run(capsys, "comp", priestley_file, "--format", "json")
    _, b, _ = run(capsys, "comp", priestley_file, "--format", "json")
    assert a == b


def test_parse_error_exits_two(capsys, tmp_path):
    path = tmp_path / "bad.dk"
    path.write_text("kind algebra\n")
    code, _, err = run(capsys, "props", str(path))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("old,new", [
    ('comp: [["0", "0"], ["0", "1"], ["1", "1"]]', "comp: [5]"),
    ('constraint ["x"]: [["0"], ["1"]]', 'constraint ["x"]: 5'),
], ids=["comp", "constraint"])
def test_malformed_nested_value_exits_two(capsys, tmp_path, lspace_file, old, new):
    text = Path(lspace_file).read_text() if old.startswith("comp") else PRIESTLEY_DOC
    assert old in text
    path = tmp_path / "bad.dk"
    path.write_text(text.replace(old, new))
    code, _, err = run(capsys, "props", str(path))
    assert code == 2
    assert "error:" in err


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "props", "/nonexistent/file.dk")
    assert code == 2


def test_oversized_builtin_exits_two_quickly(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "nu-search", "--dualizer", "builtin:luk(9999999)")
    assert code == 2
    assert "error:" in err
    assert time.perf_counter() - start < 1.0


def test_corpus_command_wiring(capsys, monkeypatch):
    fake = [CriterionResult(1, "stub", True, "ok"),
            CriterionResult(2, "stub2", False, "boom")]
    monkeypatch.setattr(cli, "run_all", lambda seed: fake)
    code, out, _ = run(capsys, "corpus", "--seed", "3")
    assert code == 1
    assert "seed: 3" in out
    assert "FAIL" in out
    monkeypatch.setattr(cli, "run_all", lambda seed: fake[:1])
    code, out, _ = run(capsys, "corpus", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"][0]["passed"] is True


# --- the parser is built once per process ------------------------------------------

def _subcommands():
    parser = cli._build_parser.__wrapped__()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sorted(action.choices)


# the arguments each subcommand requires, so that the unknown flag is the only error
REQUIRED = {
    "spectrum": ["in.dk", "--dualizer", "builtin:dl2"], "comp": ["in.dk"],
    "roundtrip": ["in.dk"], "props": ["in.dk"], "endos": ["--dualizer", "builtin:dl2"],
    "classify-sq": ["--dualizer", "builtin:dl2"], "nu-search": ["--dualizer", "builtin:dl2"],
    "bp-check": ["--dualizer", "builtin:dl2"],
    "crp-check": ["in.dk", "--dualizer", "builtin:dl2"], "jonsson-check": ["in.dk"],
    "congruences": ["in.dk", "--dualizer", "builtin:dl2"], "cons": ["in.dk"],
    "func": ["in.dk"], "gep": ["in.dk"], "lep": ["in.dk"], "local2global": ["in.dk"],
    "priestley": ["in.dk"], "mv-priestley": ["in.dk"], "export-dot": ["in.dk"],
    "corpus": [],
}


def _argparse_outcome(capsys, call, argv):
    try:
        code = call(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _argparse_cases():
    cases = [["--help"], [], ["no-such-command"]]
    for name in _subcommands():
        cases.append([name, "--help"])
        cases.append([name] + REQUIRED[name] + ["--no-such-flag", "1"])
    for name in ("spectrum", "crp-check", "congruences"):
        cases.append([name, "in.dk"])                  # --dualizer is required
    for name in ("endos", "classify-sq", "nu-search", "bp-check"):
        cases.append([name])
    cases.append(["bp-check", "--dualizer", "builtin:dl2", "--strategy", "guess"])
    cases.append(["lep", "in.dk", "--bound", "two"])
    return cases


def test_cached_parser_prints_what_a_fresh_parser_prints(capsys, monkeypatch):
    assert sorted(REQUIRED) == _subcommands()
    monkeypatch.setenv("COLUMNS", "80")
    fresh = lambda argv: cli._build_parser.__wrapped__().parse_args(argv)
    cases = _argparse_cases()
    # twice through the cached parser, so that the second round runs on a
    # parser that has already parsed and rejected every case once
    for _ in range(2):
        for argv in cases:
            expected = _argparse_outcome(capsys, fresh, argv)
            assert expected[0] in (0, 2)
            assert _argparse_outcome(capsys, cli.main, argv) == expected, argv


def test_defaults_do_not_leak_between_calls(capsys, priestley_file):
    code, out, _ = run(capsys, "lep", priestley_file, "--bound", "3")
    assert code == 0
    assert "arity: 3" in out
    code, out, _ = run(capsys, "lep", priestley_file)
    assert code == 0
    assert "arity: 2" in out
    code, out, _ = run(capsys, "bp-check", "--dualizer", "builtin:dl2", "--seed", "5")
    assert "seed: 5" in out
    code, out, _ = run(capsys, "bp-check", "--dualizer", "builtin:dl2")
    assert "seed: None" in out
    code, out, _ = run(capsys, "comp", priestley_file, "--format", "json")
    assert json.loads(out)["count"] == 3
    code, out, _ = run(capsys, "comp", priestley_file)
    assert out.startswith("count: 3\n")


def test_main_builds_the_parser_once(capsys, priestley_file):
    parser = cli._build_parser()
    misses = cli._build_parser.cache_info().misses
    run(capsys, "comp", priestley_file)
    run(capsys, "lep", priestley_file)
    assert cli._build_parser() is parser
    assert cli._build_parser.cache_info().misses == misses


MALFORMED_ALGEBRAS = {
    "duplicate": ("kind: algebra\nsize: 2\nsize: 3\n",
                  "error: line 3: duplicate key 'size'\n"),
    "no-colon": ("kind: algebra\n# note\nsignature [[\"meet\", 2]]\n",
                 "error: line 3: expected 'key: value'\n"),
    "kind": ("kind: lspace\nsize: 2\n",
             "error: expected an algebra document, found kind 'lspace'\n"),
    "entry": ('kind: algebra\nsignature: [["meet", 2]]\nsize: 2\n'
              "table meet: [[0, 0], [0, 7]]\n",
              "error: table entry 7 out of range in 'meet' at (1, 1)\n"),
    "empty": ("", "error: expected an algebra document, found kind None\n"),
    "blank": ("\n\n", "error: expected an algebra document, found kind None\n"),
    "comments": ("# note\n", "error: expected an algebra document, found kind None\n"),
}


@pytest.mark.parametrize("command", ["roundtrip", "spectrum", "congruences"])
@pytest.mark.parametrize("case", sorted(MALFORMED_ALGEBRAS))
def test_malformed_algebra_document_exits_two(capsys, tmp_path, command, case):
    text, message = MALFORMED_ALGEBRAS[case]
    if command == "roundtrip" and case == "kind":
        # roundtrip reads any kind other than algebra as a space document
        message = "error: missing dualizer reference\n"
    path = tmp_path / "bad.dk"
    path.write_text(text)
    assert run(capsys, command, str(path), "--dualizer", "builtin:dl2") == (2, "", message)


# --- mutated algebra documents --------------------------------------------------------

#: the 3-element chain in the signature of dl2, as (key, value) lines
CHAIN3 = [("kind", "algebra"), ("signature", [["meet", 2], ["join", 2], ["zero", 0], ["one", 0]]),
          ("size", 3), ("labels", ["0", "a", "1"]),
          ("table meet", [[min(a, b) for b in range(3)] for a in range(3)]),
          ("table join", [[max(a, b) for b in range(3)] for a in range(3)]),
          ("table zero", 0), ("table one", 2)]
TABLE_LINES = [i for i, (key, _) in enumerate(CHAIN3) if key.startswith("table ")]

BAD_ENTRIES = st.one_of(
    st.floats(), st.text(max_size=3), st.none(), st.booleans(),
    st.sampled_from([2**70, -2**70, 2**63, -1, 3]), st.integers(min_value=3),
    st.lists(st.integers(0, 2), max_size=3))


def _reshaped(table, draw):
    """The table with one level of its nesting broken."""
    if not isinstance(table, list):
        return draw(st.sampled_from([[table], [], str(table), {"0": table}]))
    row = draw(st.integers(0, len(table) - 1))
    kind = draw(st.sampled_from(["drop row", "extra row", "short row", "long row",
                                 "flat row", "deep entry", "not a list"]))
    rows = [list(r) for r in table]
    if kind == "drop row":
        del rows[row]
    elif kind == "extra row":
        rows.append(rows[row])
    elif kind == "short row":
        rows[row] = rows[row][1:]
    elif kind == "long row":
        rows[row] = rows[row] + [0]
    elif kind == "flat row":
        rows[row] = rows[row][0]
    elif kind == "deep entry":
        rows[row][0] = [rows[row][0]]
    else:
        return draw(st.sampled_from([0, "meet", None, {}]))
    return rows


@st.composite
def mutated_documents(draw):
    """(document text, the symbol whose table was mutated)."""
    lines = list(CHAIN3)
    at = draw(st.sampled_from(TABLE_LINES))
    key, table = lines[at]
    kind = draw(st.sampled_from(["entry", "shape", "missing", "repeated"]))
    if kind == "entry":
        if isinstance(table, list):
            table = [list(r) for r in table]
            table[draw(st.integers(0, 2))][draw(st.integers(0, 2))] = draw(BAD_ENTRIES)
        else:
            table = draw(BAD_ENTRIES)
        lines[at] = (key, table)
    elif kind == "shape":
        lines[at] = (key, _reshaped(table, draw))
    elif kind == "missing":
        del lines[at]
    else:
        lines.insert(draw(st.integers(at + 1, len(lines))), (key, table))
    return _document(lines), key[len("table "):]


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.dk"


@settings(max_examples=150, deadline=None)
@given(case=mutated_documents())
def test_mutated_algebra_documents_exit_cleanly(fuzz_path, case):
    """A mutated table exits 0 (when what is left is still an algebra) or 2
    with one error line naming the table or the entry, never a traceback."""
    text, name = case
    line = _spectrum_error(fuzz_path, text)
    if line is not None:
        assert "'%s'" % name in line or "'table %s'" % name in line


def _spectrum_error(path, text):
    """Runs ``spectrum`` on the document text against dl2 and returns its
    one error line, or None when it exits 0 with nothing on stderr."""
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["spectrum", str(path), "--dualizer", "builtin:dl2"])
    assert code in (0, 2)
    if code == 0:
        assert err.getvalue() == ""
        return None
    assert out.getvalue() == ""
    line = err.getvalue()
    assert line.startswith("error: ") and line.count("\n") == 1
    return line


def _document(lines) -> str:
    return "".join("%s: %s\n" % (k, json.dumps(v)) for k, v in lines)


def test_a_huge_size_is_refused_before_its_labels(tmp_path):
    # without labels, a size of 10^9 would build a label per element first
    lines = [("kind", "algebra"), ("signature", [["zero", 0]]), ("size", 10**9),
             ("table zero", 0)]
    start = time.perf_counter()
    line = _spectrum_error(tmp_path / "doc.dk", _document(lines))
    assert time.perf_counter() - start < 1
    assert line == "error: size 1000000000 exceeds the largest carrier, 1000000\n"


@pytest.mark.parametrize("key, value, message", [
    ("labels", 5, "labels must be a list of strings or numbers"),
    ("labels", [[1], [2], [3]], "labels must be a list of strings or numbers"),
    ("labels", "0a1", "labels must be a list of strings or numbers"),
    ("size", 3.5, "bad signature/size: size must be an integer, found 3.5"),
    ("size", "3", "bad signature/size: size must be an integer, found '3'"),
    ("signature", [["meet", 2.7], ["join", 2], ["zero", 0], ["one", 0]],
     "bad signature/size: the arity of 'meet' must be an integer, found 2.7"),
])
def test_top_level_faults_are_named(tmp_path, key, value, message):
    lines = [(k, value if k == key else v) for k, v in CHAIN3]
    assert _spectrum_error(tmp_path / "doc.dk", _document(lines)) == "error: %s\n" % message


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=6)
#: an integer written as an int, a float, a fraction or a string
NUMBER_LIKE = st.integers(-1, 5).flatmap(
    lambda i: st.sampled_from([i, float(i), i + 0.5, str(i)]))


@st.composite
def mutated_top_level(draw):
    """(document text, the top-level key mutated, its new value or None
    when it was deleted)."""
    lines = list(CHAIN3) + [("name", "chain3")]
    at = draw(st.sampled_from([0, 1, 2, 3, len(lines) - 1]))
    key, value = lines[at]
    kind = draw(st.sampled_from(["delete", "replace", "entry"]))
    if kind == "delete":
        del lines[at]
        return _document(lines), key, None
    if kind == "entry" and isinstance(value, list):
        value = [list(v) if isinstance(v, list) else v for v in value]
        i = draw(st.integers(0, len(value) - 1))
        if isinstance(value[i], list):       # a signature pair: name or arity
            slot = draw(st.integers(0, 1))
            value[i][slot] = draw(st.one_of(JSON_VALUES, NUMBER_LIKE) if slot else JSON_VALUES)
        else:
            value[i] = draw(st.one_of(JSON_VALUES, st.sampled_from(value)))
    else:
        value = draw(st.one_of(JSON_VALUES, NUMBER_LIKE))
    lines[at] = (key, value)
    return _document(lines), key, value


@settings(max_examples=200, deadline=None)
@given(case=mutated_top_level())
def test_mutated_top_level_keys_exit_cleanly(fuzz_path, case):
    """A mutated kind, signature, size, labels or name exits 0 only when the
    document still reads as an algebra, and otherwise 2 with one error line
    naming the key (a wrong signature may be named by a table it no longer
    matches, a wrong integer size up to the carrier cap by the labels),
    never a traceback."""
    text, key, value = case
    line = _spectrum_error(fuzz_path, text)
    if line is None:
        if key == "kind":
            assert value == "algebra"
        elif key == "size":
            assert isinstance(value, int) and value == 3
        elif key == "labels":
            assert value is None or len(set(value)) == len(value) == 3
        elif key == "signature":
            assert all(isinstance(arity, int) for _, arity in value)
    else:
        named = {"kind": ["kind"], "signature": ["signature", "table"], "labels": ["labels"],
                 "size": ["labels"] if isinstance(value, int) and value <= DEFAULT_BUDGET
                 else ["size"], "name": []}
        assert any(word in line for word in named[key]), line
