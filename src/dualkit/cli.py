"""Command-line surface: every library capability as a subcommand.

Exit status is 0 for a pass or a plain report, 1 for a falsified property
(with the witness on standard output), 2 for input errors.  Output is
byte-identical across runs for identical inputs and seeds; ``--format json``
mirrors the text fields one to one.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .algebras import BudgetExceeded, InvalidInput
from .constrained import (
    ConstrainedSpace,
    UnaryConstrainedSpace,
    ccomp,
    cons,
    func,
    has_global_extension,
    has_local_extension,
    local_to_global_verify,
    mv_priestley_validate,
    priestley_from_order,
    priestley_to_order,
    validate_constrained,
    validate_unary,
)
from .corpus import run_all
from .fileformat import (
    AlgebraDocument,
    ParseError,
    SpaceDocument,
    ValidationError,
    _algebra_from_document,
    _space_from_document,
    export_dot,
    parse_document,
    parse_space,
    resolve_algebra,
    serialize_space,
)
from .properties import (
    _spectrum_report,
    check_finite_bp,
    chinese_remainder_sweep,
    classify_square_subalgebras,
    jonsson_finite_cover_check,
    partial_endomorphisms,
)
from .spaces import LSpace, space_properties, spectrum
from .terms import search_nu_function, term_to_text
from .topology import discrete_topology


def _read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_algebra(ref, parsed=None) -> AlgebraDocument:
    """The algebra ``ref`` names; ``parsed`` is its file already split by
    ``parse_document``, when the caller has read it."""
    if ref.startswith("builtin:"):
        return resolve_algebra(ref)
    if parsed is None:
        parsed = parse_document(_read(ref))
    kind = parsed.get("kind")
    if kind != "algebra":
        raise ValidationError("expected an algebra document, found kind %r" % kind)
    return _algebra_from_document(parsed)


def _load_space(path) -> SpaceDocument:
    return parse_space(_read(path))


def _emit(fields, fmt):
    if fmt == "json":
        print(json.dumps(dict(fields)))
    else:
        for key, value in fields:
            if isinstance(value, (list, dict)):
                value = json.dumps(value)
            print("%s: %s" % (key, value))


def _labelled(values, labels):
    return [labels[v] for v in values]


# --- subcommand bodies -------------------------------------------------------------

def cmd_spectrum(args):
    doc = _load_algebra(args.input)
    dualizer = _load_algebra(args.dualizer)
    spec = spectrum(doc.algebra, dualizer.algebra)
    homs = [ _labelled(h.values, dualizer.labels) for h in spec.homs ]
    fields = [("points", spec.space.n),
              ("discrete", spec.space.topology.is_discrete()),
              ("homs", homs),
              ("comp_size", len(spec.space.functions))]
    _emit(fields, args.format)
    return 0


def cmd_comp(args):
    doc = _load_space(args.input)
    labels = doc.dualizer.labels
    if isinstance(doc.space, LSpace):
        functions = sorted(doc.space.functions)
    else:
        functions = ccomp(doc.space, budget=args.budget)
    fields = [("count", len(functions)),
              ("functions", [_labelled(f, labels) for f in functions])]
    _emit(fields, args.format)
    return 0


def cmd_roundtrip(args):
    from .spaces import check_duality_roundtrip_algebra, check_duality_roundtrip_space
    if args.input.startswith("builtin:"):
        parsed, kind = None, "algebra"
    else:
        parsed = parse_document(_read(args.input))
        kind = parsed.get("kind") if parsed else "algebra"
    if kind == "algebra":
        doc = _load_algebra(args.input, parsed)
        if not args.dualizer:
            raise InvalidInput("roundtrip on an algebra needs --dualizer")
        dualizer = _load_algebra(args.dualizer)
        report = check_duality_roundtrip_algebra(doc.algebra, dualizer.algebra)
    else:
        doc = _space_from_document(parsed)
        if not isinstance(doc.space, LSpace):
            raise ValidationError("roundtrip expects an algebra or lspace document")
        report = check_duality_roundtrip_space(doc.space)
    fields = [("checks", len(report.checked)), ("ok", report.ok)]
    if not report.ok:
        fields.append(("witnesses", [[name, repr(w)] for name, w in report.failures]))
    _emit(fields, args.format)
    return 0 if report.ok else 1


def cmd_props(args):
    doc = _load_space(args.input)
    if isinstance(doc.space, LSpace):
        props = space_properties(doc.space)
        fields = [("separated", props.separated), ("full", props.full),
                  ("completely_regular", props.completely_regular),
                  ("compact", props.compact), ("discrete", props.discrete)]
    elif isinstance(doc.space, UnaryConstrainedSpace):
        report = validate_unary(doc.space)
        fields = [("subdirect", report.subdirect), ("continuous", report.continuous),
                  ("separated", report.separated),
                  ("equiv_closed", report.equiv_closed),
                  ("separation_witnessed", report.separation_witnessed)]
    else:
        report = validate_constrained(doc.space)
        fields = [("subdirect", report.subdirect), ("continuous", report.continuous),
                  ("separated", report.separated),
                  ("scott_continuous", report.scott_continuous)]
    _emit(fields, args.format)
    return 0


def cmd_endos(args):
    doc = _load_algebra(args.dualizer)
    report = partial_endomorphisms(doc.algebra, budget=args.budget)
    entries = [[_labelled(e.domain, doc.labels), _labelled(e.values, doc.labels)]
               for e in report.endomorphisms]
    _emit([("all_trivial", report.all_trivial),
           ("count", len(report.endomorphisms)),
           ("endomorphisms", entries)], args.format)
    return 0


def cmd_classify_sq(args):
    doc = _load_algebra(args.dualizer)
    classification = classify_square_subalgebras(doc.algebra, budget=args.budget)
    classes = [[c.tag, [[doc.labels[a], doc.labels[b]] for a, b in c.pairs]]
               for c in classification.classes]
    _emit([("only_subdiagonal_or_product", classification.only_subdiagonal_or_product),
           ("count", len(classification.classes)),
           ("classes", classes)], args.format)
    return 0


def cmd_nu_search(args):
    doc = _load_algebra(args.dualizer)
    arity = args.k + 1
    found = search_nu_function(doc.algebra, arity, budget=args.budget)
    fields = [("arity", arity), ("found", found is not None)]
    if found is not None:
        fields.append(("term", term_to_text(found.term)))
    _emit(fields, args.format)
    return 0


def cmd_bp_check(args):
    doc = _load_algebra(args.dualizer)
    if args.strategy == "sampled" and args.seed is None:
        raise InvalidInput("sampled sweeps require --seed")
    verdict = check_finite_bp(doc.algebra, args.k, args.bound,
                              strategy=args.strategy, seed=args.seed,
                              samples=args.samples, budget=args.budget)
    fields = [("k", args.k), ("bound", args.bound), ("strategy", verdict.strategy),
              ("seed", verdict.seed), ("instances", verdict.instances),
              ("passed", verdict.passed)]
    if not verdict.passed:
        x_size, functions, candidate = verdict.counterexample
        fields.append(("witness", {
            "points": x_size,
            "functions": [_labelled(f, doc.labels) for f in functions],
            "candidate": _labelled(candidate, doc.labels)}))
    _emit(fields, args.format)
    return 0 if verdict.passed else 1


def cmd_crp_check(args):
    doc = _load_algebra(args.input)
    dualizer = _load_algebra(args.dualizer)
    checked, failure = chinese_remainder_sweep(doc.algebra, dualizer.algebra,
                                               args.k, args.bound, budget=args.budget)
    fields = [("k", args.k), ("systems", checked), ("passed", failure is None)]
    if failure is not None:
        fields.append(("witness", repr(failure)))
    _emit(fields, args.format)
    return 0 if failure is None else 1


def cmd_jonsson_check(args):
    doc = _load_space(args.input)
    if not isinstance(doc.space, LSpace):
        raise ValidationError("jonsson-check expects an lspace document")
    verdict = jonsson_finite_cover_check(doc.dualizer.algebra, doc.space.n,
                                         sorted(doc.space.functions))
    fields = [("passed", verdict.passed)]
    if not verdict.passed:
        fields.append(("witness", repr(verdict.witness)))
    _emit(fields, args.format)
    return 0 if verdict.passed else 1


def cmd_congruences(args):
    doc = _load_algebra(args.input)
    dualizer = _load_algebra(args.dualizer)
    thetas, report = _spectrum_report(doc.algebra, dualizer.algebra, args.budget)
    partitions = []
    for theta in thetas:
        blocks: dict[int, list] = {}
        for element, block in enumerate(theta.blocks):
            blocks.setdefault(block, []).append(doc.labels[element])
        partitions.append(sorted(blocks.values()))
    fields = [("relative_congruences", len(thetas)),
              ("partitions", partitions),
              ("hypotheses_ok", not report.hypothesis_failures),
              ("anti_isomorphism", report.ok)]
    if report.hypothesis_failures:
        fields.append(("hypothesis_failures", list(report.hypothesis_failures)))
    _emit(fields, args.format)
    falsified = not report.ok and not report.hypothesis_failures
    return 1 if falsified else 0


def cmd_cons(args):
    doc = _load_space(args.input)
    if not isinstance(doc.space, LSpace):
        raise ValidationError("cons expects an lspace document")
    constrained = cons(doc.space, args.k)
    print(serialize_space(SpaceDocument(
        "constrained-unary" if args.k == 1 else "constrained-%d" % args.k,
        doc.points, doc.dualizer_ref, doc.dualizer, constrained)), end="")
    return 0


def cmd_func(args):
    doc = _load_space(args.input)
    if isinstance(doc.space, LSpace):
        raise ValidationError("func expects a constrained document")
    space = func(doc.space, budget=args.budget)
    # a document's constraints need not be subuniverses; reading Comp X tests closure
    space.comp_algebra()
    print(serialize_space(SpaceDocument("lspace", doc.points, doc.dualizer_ref,
                                        doc.dualizer, space)), end="")
    return 0


def cmd_gep(args):
    doc = _load_space(args.input)
    if isinstance(doc.space, LSpace):
        raise ValidationError("gep expects a constrained document")
    ok, witness, functions = has_global_extension(doc.space, budget=args.budget)
    fields = [("global_extension", ok), ("compatible_functions", len(functions))]
    if not ok:
        fields.append(("witness", repr(witness)))
    _emit(fields, args.format)
    return 0 if ok else 1


def cmd_lep(args):
    doc = _load_space(args.input)
    if isinstance(doc.space, LSpace):
        raise ValidationError("lep expects a constrained document")
    ok, witness = has_local_extension(doc.space, args.bound, budget=args.budget)
    fields = [("arity", args.bound), ("local_extension", ok)]
    if not ok:
        fields.append(("witness", repr(witness)))
    _emit(fields, args.format)
    return 0 if ok else 1


def cmd_local2global(args):
    doc = _load_space(args.input)
    if not isinstance(doc.space, ConstrainedSpace):
        raise ValidationError("local2global expects a k-ary constrained document")
    m = search_nu_function(doc.space.dualizer, doc.space.k + 1, budget=args.budget)
    if m is None:
        raise InvalidInput("dualizer has no near-unanimity term of arity k+1")
    verdict = local_to_global_verify(doc.space, m, budget=args.budget)
    fields = [("lep", verdict.lep), ("gep", verdict.gep),
              ("theorem_holds", verdict.theorem_holds)]
    if not verdict.theorem_holds:
        fields.append(("witness", repr(verdict.gep_witness)))
    _emit(fields, args.format)
    return 0 if verdict.theorem_holds else 1


def cmd_priestley(args):
    doc = _load_space(args.input)
    if doc.kind == "poset":
        dualizer_ref = args.dualizer or "builtin:dl2"
        dualizer = _load_algebra(dualizer_ref)
        space = priestley_from_order(discrete_topology(len(doc.points)),
                                     doc.space, dualizer.algebra)
        print(serialize_space(SpaceDocument("constrained-2", doc.points,
                                            dualizer_ref, dualizer, space)), end="")
        return 0
    if not isinstance(doc.space, ConstrainedSpace):
        raise ValidationError("priestley expects a poset or binary constrained document")
    leq = priestley_to_order(doc.space)
    print(serialize_space(SpaceDocument("poset", doc.points, "", None, leq)), end="")
    return 0


def cmd_mv_priestley(args):
    doc = _load_space(args.input)
    if not isinstance(doc.space, ConstrainedSpace):
        raise ValidationError("mv-priestley expects a binary constrained document")
    report = mv_priestley_validate(doc.space, budget=args.budget)
    fields = [("order_is_partial_order", report.order_is_partial_order),
              ("subdirect_inclusions", report.subdirect_inclusions),
              ("subdiagonal_iff_equal", report.subdiagonal_iff_equal),
              ("pairwise_extension", report.pairwise_extension),
              ("matches_generic", report.matches_generic),
              ("local_extension_cases", report.local_extension_cases),
              ("local_matches_generic", report.local_matches_generic),
              ("valid", report.valid)]
    _emit(fields, args.format)
    return 0 if report.valid else 1


def cmd_export_dot(args):
    doc = _load_space(args.input)
    print(export_dot(doc), end="")
    return 0


def cmd_corpus(args):
    results = run_all(seed=args.seed)
    if args.format == "json":
        print(json.dumps({"seed": args.seed,
                          "results": [{"number": r.number, "name": r.name,
                                       "passed": r.passed, "detail": r.detail}
                                      for r in results]}))
    else:
        print("seed: %d" % args.seed)
        for result in results:
            print(result.line())
    return 0 if all(r.passed for r in results) else 1


# --- parser ---------------------------------------------------------------------------

@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dualkit",
        description="Finite-scale workbench for Stone-like natural dualities.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, inputs=(), dualizer=False, required_dualizer=False, **flags):
        p = sub.add_parser(name)
        for positional in inputs:
            p.add_argument(positional)
        if dualizer or required_dualizer:
            p.add_argument("--dualizer", required=required_dualizer,
                           help="builtin:NAME or a path to an algebra document")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--budget", type=int, default=10**6)
        for flag, options in flags.items():
            p.add_argument("--" + flag, **options)
        p.set_defaults(fn=fn)
        return p

    add("spectrum", cmd_spectrum, ["input"], required_dualizer=True)
    add("comp", cmd_comp, ["input"])
    add("roundtrip", cmd_roundtrip, ["input"], dualizer=True)
    add("props", cmd_props, ["input"])
    add("endos", cmd_endos, required_dualizer=True)
    add("classify-sq", cmd_classify_sq, required_dualizer=True)
    add("nu-search", cmd_nu_search, required_dualizer=True,
        k={"type": int, "default": 2, "help": "search arity is k+1"})
    add("bp-check", cmd_bp_check, required_dualizer=True,
        k={"type": int, "default": 2},
        bound={"type": int, "default": 2, "help": "largest representation base"},
        strategy={"choices": ("exhaustive", "sampled"), "default": "exhaustive"},
        seed={"type": int, "default": None},
        samples={"type": int, "default": 500})
    add("crp-check", cmd_crp_check, ["input"], required_dualizer=True,
        k={"type": int, "default": 2},
        bound={"type": int, "default": 3, "help": "largest system size"})
    add("jonsson-check", cmd_jonsson_check, ["input"])
    add("congruences", cmd_congruences, ["input"], required_dualizer=True)
    add("cons", cmd_cons, ["input"], k={"type": int, "default": 2})
    add("func", cmd_func, ["input"])
    add("gep", cmd_gep, ["input"])
    add("lep", cmd_lep, ["input"], bound={"type": int, "default": 2})
    add("local2global", cmd_local2global, ["input"])
    add("priestley", cmd_priestley, ["input"], dualizer=True)
    add("mv-priestley", cmd_mv_priestley, ["input"])
    add("export-dot", cmd_export_dot, ["input"])
    add("corpus", cmd_corpus, seed={"type": int, "default": 0})
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, ValidationError, InvalidInput, BudgetExceeded, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
