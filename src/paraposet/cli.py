"""Command-line front end.

Exit codes: 0 success / property holds, 1 property fails or a
counterexample search comes back empty, 2 usage or input errors,
3 a pasting theorem is violated by an amalgam.

``main`` is the one place that turns an exception into an exit code.
A command with a FILE argument exits 2, with one ``error: FILE: ...``
line on stderr, when the file is unreadable or malformed, when a
family does not paste, or when the operation asked for is undefined on
the structure. ``verify`` and ``search`` read no file, so an exception
raised there is a program fault and propagates; ``search`` passes over a
structure on which a predicate is undefined and counts it on stderr.

``COMMANDS`` defines each command once: its help line and the function
that adds its arguments. ``main`` parses argv with the invoked
command's own parser (``command_parser``, one cached per command), the
parser that the full parser's subparser for that command would be. The
full parser (``make_parser``, cached too) is built only when that
cannot decide the call: no command, a first word that is no command
(top-level usage, help, an unknown name) or arguments the command does
not take. It then parses argv again and prints what it always printed,
so every exit code, stdout and stderr is the one of a parse by the full
parser alone.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import amalgam as am
from . import fileformat, harness, implication, relative, render
from .ortho import (OrthoPoset, PREDICATES, orthogonality_witness,
                    orthomodular_witness, paraortho_witness)
from .poset import PosetError, bits
from .relative import SectionedPoset


def _as_ortho(obj) -> OrthoPoset:
    if isinstance(obj, OrthoPoset):
        return obj
    if isinstance(obj, SectionedPoset):
        return obj.ortho
    if isinstance(obj, am.PastedFamily):
        return am.build_amalgam(obj)
    raise PosetError("no involution declared")


def _witness(o: OrthoPoset, name: str):
    p = o.poset
    w = None
    if name in ("paraorthomodular", "sharply-paraorthomodular"):
        w = paraortho_witness(o)
    elif name == "orthomodular":
        w = orthomodular_witness(o)
    elif name == "orthogonal":
        w = orthogonality_witness(o)
    if w is None:
        return ""
    return "  witness (" + ", ".join(p.labels[i] for i in w) + ")"


def _unknown_predicate(names) -> bool:
    """Report the first name that is not a predicate; True if there is one."""
    for name in names:
        if name not in PREDICATES:
            print(f"error: unknown predicate {name!r}", file=sys.stderr)
            return True
    return False


def cmd_check(args) -> int:
    names = args.predicate or sorted(PREDICATES)
    if _unknown_predicate(names):
        return 2
    o = _as_ortho(fileformat.load(args.file))
    all_ok = True
    for name in names:
        try:
            verdict = PREDICATES[name](o)
        except PosetError as exc:
            print(f"{name}: undefined ({exc})")
            all_ok = False
            continue
        extra = "" if verdict else _witness(o, name)
        print(f"{name}: {'true' if verdict else 'false'}{extra}")
        all_ok = all_ok and verdict
    return 0 if all_ok else 1


def cmd_table(args) -> int:
    obj = fileformat.load(args.file)
    op = args.op
    if op in ("i3", "i4"):
        s = obj if isinstance(obj, SectionedPoset) else \
            relative.sections_from_involution(_as_ortho(obj))
        table = relative.impl_I3(s) if op == "i3" else relative.impl_I4(s)
    else:
        fn = {"i1": implication.impl_I, "i2": implication.impl_I2,
              "sasaki-impl": implication.sasaki_impl,
              "sasaki-prod": implication.sasaki_proj}[op]
        table = fn(_as_ortho(obj))
    sys.stdout.write(render.render_table(table))
    return 0


def cmd_amalgam(args) -> int:
    obj = fileformat.load(args.file)
    if not isinstance(obj, am.PastedFamily):
        raise PosetError("not a family file")
    carrier = am.build_amalgam(obj)
    p = carrier.poset
    if args.loops is not None:
        try:
            loops = am.find_loops(obj, args.loops)
        except ValueError as exc:
            print(f"error: --loops {args.loops}: {exc}", file=sys.stderr)
            return 2
        for loop in loops:
            blocks = " ".join(obj.names[i] for i in loop.blocks)
            atoms = " ".join(p.labels[a] for a in loop.atoms)
            print(f"loop order={args.loops} blocks=[{blocks}] atoms=[{atoms}]")
        print(f"{len(loops)} loop(s) of order {args.loops}")
        return 0
    # both are settled before the first line is printed, so an error
    # leaves stdout empty
    rep = am.classify_amalgam(obj, carrier)
    cov = am.cover_transfer(obj, carrier)
    print(f"elements: {p.n}")
    print(f"loops: order-3={len(rep.loops3)} order-4={len(rep.loops4)}")
    print(f"predicted: sharply={rep.predicted_sharply} lattice={rep.predicted_lattice}")
    # build_amalgam raises PastingViolation on a carrier that is not
    # paraorthomodular, and main turns that into exit 3
    print("direct: paraorthomodular=True "
          f"sharply={rep.direct_sharply} lattice={rep.direct_lattice}")
    if rep.join_witness is not None:
        a, b = rep.join_witness
        print(f"missing join: {p.labels[a]} v {p.labels[b]}")
    print(f"two-block pastings are lattices: {rep.two_block_lattices}")
    for cx, cy, blk, between in cov.exceptions:
        mids = ", ".join(p.labels[i] for i in bits(between))
        print(f"cover exception: {p.labels[cx]} < {p.labels[cy]} "
              f"(block {obj.names[blk]}) interlopers [{mids}]")
    if not args.classify:
        return 0
    if rep.agree and cov.ok:
        print("classification: predictions agree with direct checks")
        return 0
    print("classification: THEOREM VIOLATION")
    return 3


def _max_n_problem(max_n: int) -> str:
    """Why a sweep up to ``max_n`` would check nothing, or ''."""
    if max_n < 2:
        return f"--max-n {max_n} checks nothing: structures start at n = 2"
    return ""


def _verify_problem(max_n: int, ids) -> str:
    """Why a verify run would check nothing or count a theorem twice, or ''."""
    problem = _max_n_problem(max_n)
    if problem:
        return problem
    if ids == []:
        return "--theorems names no theorem"
    try:
        harness.validate_ids(ids or ())
    except (KeyError, ValueError) as exc:
        return exc.args[0]
    return ""


def cmd_verify(args) -> int:
    ids = None if args.theorems == "all" else [t for t in args.theorems.split(",") if t]
    problem = _verify_problem(args.max_n, ids)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    results = harness.run_harness(max_n=args.max_n, ids=ids)
    bad = 0
    for res in results:
        status = "ok" if res.ok else f"FAIL ({len(res.violations)} violations)"
        print(f"{res.theorem}: {status} instances={res.instances}")
        for v in res.violations:
            print(f"  {v}")
        bad += len(res.violations)
    print(f"total: {len(results)} theorems, {bad} violations, max-n={args.max_n}")
    return 0 if bad == 0 else 1


def cmd_search(args) -> int:
    try:
        prop_a, prop_b = args.implies.split(",")
    except ValueError:
        print("error: --implies takes two comma-separated predicates",
              file=sys.stderr)
        return 2
    if _unknown_predicate((prop_a, prop_b)):
        return 2
    problem = _max_n_problem(args.max_n)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    found, skipped = harness.find_counterexample(prop_a, prop_b, max_n=args.max_n)
    if skipped:
        print(f"note: skipped {skipped} structures on which {prop_a} or {prop_b} "
              "is undefined", file=sys.stderr)
    if found is None:
        print(f"no counterexample: {prop_a} implies {prop_b} up to n={args.max_n}")
        return 1
    print(f"counterexample ({prop_a} without {prop_b}):")
    sys.stdout.write(fileformat.emit(found))
    return 0


def cmd_export(args) -> int:
    obj = fileformat.load(args.file)
    if isinstance(obj, am.PastedFamily):
        obj = am.build_amalgam(obj)
    sys.stdout.write(render.export_dot(obj))
    return 0


def _check_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--predicate", action="append",
                   help="predicate name (repeatable; default: all)")


def _table_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--op", required=True,
                   choices=["i1", "i2", "i3", "i4", "sasaki-impl", "sasaki-prod"])


def _amalgam_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", metavar="family")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--classify", action="store_true",
                      help="exit 3 if predictions and direct checks disagree")
    mode.add_argument("--loops", type=int, metavar="N",
                      help="list atomic loops of the given order")


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theorems", default="all",
                   help="comma-separated theorem ids, or 'all'")
    p.add_argument("--max-n", type=int, default=6)


def _search_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--implies", required=True, metavar="A,B")
    p.add_argument("--max-n", type=int, default=6)


def _export_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--dot", action="store_true", default=True)


# each command's help line and the function that adds its arguments, in
# the order the top-level help lists them
COMMANDS = {
    "check": ("evaluate structural predicates", _check_arguments),
    "table": ("print an implication or product table", _table_arguments),
    "amalgam": ("build and classify a pasted family", _amalgam_arguments),
    "verify": ("run the exhaustive theorem harness", _verify_arguments),
    "search": ("hunt for a counterexample to A implies B", _search_arguments),
    "export": ("write a DOT cover diagram", _export_arguments),
}


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The full parser: every command as a subparser, built on first use."""
    ap = argparse.ArgumentParser(
        prog="paraposet",
        description="Checks and tables for finite ordered structures "
                    "with antitone involutions.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_line))
    return ap


@functools.cache
def command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command, built on first use: the same parser as
    the full parser's subparser for ``name``."""
    ap = argparse.ArgumentParser(prog=f"paraposet {name}")
    COMMANDS[name][1](ap)
    return ap


def _parse(argv: list) -> argparse.Namespace:
    # argparse's subparser action makes this same parse_known_args call;
    # the full parser does the rest: top-level usage, help, an unknown
    # command and the report of leftover arguments
    if argv and argv[0] in COMMANDS:
        args, rest = command_parser(argv[0]).parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return make_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    # looked up per call, so a replaced ``cmd_*`` attribute is the one that runs
    cmd = globals()[f"cmd_{args.command}"]
    path = getattr(args, "file", None)
    try:
        return cmd(args)
    except (am.PastingViolation, OSError, fileformat.ParseError, PosetError) as exc:
        if path is None:
            raise
        print(f"error: {path}: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, am.PastingViolation) else 2


if __name__ == "__main__":
    raise SystemExit(main())
