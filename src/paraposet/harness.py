"""Re-verification of every statement on exhaustively enumerated structures.

Each registered check is offered the items of one stream of small
structures and returns the bare texts of its violations (expected:
none). ``run_harness`` turns each text into a report line by prefixing
``_tag(p)``, the one place that names the poset p the item is built on.
A run walks the bounded posets once per size n and expands each poset
into the items of every requested stream: its antitone involutions
(``ortho``), its section families (``sectioned``) and, on lattices, all
its involutions (``lattice-inv``), enumerated and validated once per
size. The ``lattice-inv`` items are a sized view, not a list: iterating
it pairs the lattice with each involution of its size, and it is empty
on any other poset. Each theorem runs over the items of one poset under
one timer, with its ``applies`` and ``check`` read once per poset;
``map`` calls the check on each item and ``chain`` joins the results,
both at C level, so each item costs one call of the check and no other
Python frame. The check of a lattice/involution pair reads the
lattice's fit dict (``adjoint._omidentity_fits``, built once per
lattice) and returns a shared empty result when the dict is empty, as
on most lattices, without hashing the involution, or when the pair's
two verdicts agree. The tag is computed once per theorem and poset,
and only for a poset with a violation. Streams and results are fully
deterministic, so repeated runs with equal settings produce identical
reports.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import adjoint, implication, relative
from .ortho import (OrthoPoset, PREDICATES, find_benzene, is_boolean_algebra,
                    is_kleene_lattice, is_orthogonal_poset, is_orthomodular,
                    is_paraorthomodular, is_sharply_paraorthomodular,
                    is_weakly_boolean, nonorthogonal_zero_meets,
                    orthomodular_verdicts)
from .poset import PosetError
from .universe import (bounded_posets, involutions, ortho_structures,
                       sectioned_structures)


@dataclass
class HarnessResult:
    theorem: str
    instances: int
    violations: List[str]
    seconds: float

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {"theorem": self.theorem, "instances": self.instances,
                "violations": list(self.violations)}


def _tag(p) -> str:
    """The crc32 tag of the poset ``p``, which names its stream items."""
    key = repr((p.labels, p.up)).encode()
    return f"n={p.n}:{zlib.crc32(key):08x}"


def _report_th(check):
    def run(o):
        rep = check(o)
        return ([f"clause {v}" for v in rep.violations]
                + [f"clause {v} (elementwise)" for v in rep.violations_elementwise])
    return run


def _agree3(fn):
    def run(o):
        a, b, agree = fn(o)
        return [] if agree else [f"verdicts {a} vs {b}"]
    return run


def _holds(statement, text):
    """A check reporting ``text`` where ``statement`` is false."""
    return lambda o: [] if statement(o) else [text]


def _forces_om(condition):
    """A check of a statement 'condition forces orthomodularity'."""
    return _holds(lambda o: condition(o).consistent,
                  "condition holds yet not orthomodular")


def _lattice(o):
    return o.poset.is_lattice


def _compatible(s):
    return implication.cached(s, relative.check_C)[0]


def _antitone(module, name):
    # the builder is looked up at each call, so a wrapper put on the module
    # attribute after import both runs and keys the memo, as it does for
    # every other reader of the table
    return _holds(lambda s: implication.antitone_first_arg(
        implication.cached(s, getattr(module, name))), "not antitone")


def _omui(o):
    d, u, ue = implication.cached(o, orthomodular_verdicts)
    return [] if d == u == ue else [f"verdicts {d}/{u}/{ue}"]


def _i1_matches_i2(o):
    c1 = implication.cached(o, implication.impl_I).cells
    c2 = implication.cached(o, implication.impl_I2).cells
    if c1 == c2:
        return []
    return [f"cells differ at ({x},{y})"
            for x, (r1, r2) in enumerate(zip(c1, c2))
            for y, (a, b) in enumerate(zip(r1, r2)) if a != b]


def _adji(o):
    prod = implication.cached(o, adjoint.cone_adjoint)
    if prod is None:
        return []
    return [f"clause {v}" for v in adjoint.adji_consequences(o, prod).violations]


def _kleene_remark(o):
    if not is_kleene_lattice(o):
        return []
    labels = o.poset.labels
    return [f"zero meet without orthogonality at ({labels[x]}, {labels[y]})"
            for x, y in nonorthogonal_zero_meets(o)]


def _benzene(o):
    try:
        find_benzene(o)
    except AssertionError as exc:
        return [str(exc)]
    return []


def _dist_variants(o):
    # the four identities stand or fall together: on a distributive poset
    # none may fail, on any other poset one must
    p = o.poset
    fails = p.distributive_variant_failure
    if p.is_distributive and fails is not None:
        x, y, z = fails
        return [f"variant split at ({x},{y},{z})"]
    if not p.is_distributive and fails is None:
        return ["predicate false yet every variant holds"]
    return []


def _nary_dist(o):
    p = o.poset
    fails = p.nary_distributive_failure if p.is_distributive else None
    if fails is None:
        return []
    xs, z = fails
    return [f"n-ary identity fails at {xs},{z}"]


class _LatticeInvolutions:
    """``p`` paired with each of ``invs``, the involutions of its size, on
    a lattice, and nothing on any other poset; sized, and iterable more
    than once, without a list of the pairs."""

    def __init__(self, p, invs):
        self.p, self.invs = p, invs if p.is_lattice else ()

    def __len__(self):
        return len(self.invs)

    def __iter__(self):
        return zip(repeat(self.p), self.invs)


_AGREE = ()     # the result of every pair whose verdicts agree, shared


def _omid(pair):
    # the harness has validated every involution of the size once; an
    # involution missing from the fit dict fits neither mask, so both
    # verdicts are False, and an empty dict leaves nothing to look up
    p, inv = pair
    fits = p._memo.get(adjoint._omidentity_fits)
    if fits is None:
        fits = implication.cached(p, adjoint._omidentity_fits)
    if not fits:
        return _AGREE
    verdicts = fits.get(inv)
    if verdicts is None or verdicts[0] == verdicts[1]:
        return _AGREE
    return [f"inv={inv} verdicts {verdicts[0]} vs {verdicts[1]}"]


@dataclass(frozen=True)
class Theorem:
    id: str
    stream: str                     # ortho | sectioned | lattice-inv
    check: Callable
    applies: Optional[Callable] = None
    description: str = ""


THEOREMS: Dict[str, Theorem] = {}


def _register(id, stream, check, applies=None, description=""):
    THEOREMS[id] = Theorem(id, stream, check, applies, description)


_register("th1", "ortho", _report_th(implication.check_th1), is_orthogonal_poset,
          "elementary laws of the cone implication")
_register("lemma-sharply", "ortho", _report_th(implication.check_lemma_sharply),
          is_sharply_paraorthomodular, "sharp collapse laws of the cone implication")
_register("paraortho-iff-impl", "ortho", _agree3(implication.paraortho_iff_impl),
          is_orthogonal_poset, "paraorthomodularity via the implication unit law")
_register("i2-antitone", "ortho", _antitone(implication, "impl_I2"), _lattice,
          "lattice implication antitone in the first slot")
_register("i1-matches-i2", "ortho", _i1_matches_i2, _lattice,
          "set and lattice implications agree on lattices")
_register("duality", "ortho", _holds(implication.duality_check, "duality broken"),
          is_orthogonal_poset, "cone implication is the flipped Sasaki implication")
_register("th2", "sectioned", _report_th(relative.check_th2),
          relative.is_relatively_paraorthomodular,
          "elementary laws of the section implication")
_register("para-via-i3", "sectioned", _agree3(relative.para_via_I3), None,
          "global paraorthomodularity via the section implication")
_register("relpara-under-c", "sectioned", _agree3(relative.relpara_via_impl_under_C),
          _compatible, "relative paraorthomodularity via the unit law under compatibility")
_register("i4-antitone", "sectioned", _antitone(relative, "impl_I4"), _lattice,
          "join-semilattice implication antitone in the first slot")
_ab_equiv = _holds(adjoint.lemma_AB_equiv, "A/B verdicts split")
_register("lemadj", "ortho", _ab_equiv, _lattice,
          "forward and backward Sasaki adjointness agree on lattices")
_register("aisb", "ortho", _ab_equiv, is_orthogonal_poset,
          "forward and backward Sasaki adjointness agree on posets")
_register("omidentity", "lattice-inv", _omid, None,
          "orthomodular identities equal two-sided Sasaki adjointness")
_register("omui", "ortho", _omui, is_orthogonal_poset,
          "three readings of orthomodularity agree")
_register("sasom", "ortho", _agree3(adjoint.sasom_equiv), is_orthogonal_poset,
          "orthomodularity equals subscripted Sasaki adjointness")
_register("th3", "ortho", _forces_om(adjoint.th3_check), _lattice,
          "forward condition for the mixed pair forces orthomodularity")
_register("posth3", "ortho", _forces_om(adjoint.posth3_check), is_orthogonal_poset,
          "poset variant of the mixed-pair condition")
_register("adji", "ortho", _adji, is_orthogonal_poset,
          "consequences of an adjoint product for the cone implication")
_register("adjibp", "ortho", _holds(lambda o: adjoint.adjibp_check(o) in (None, True),
                                    "Boolean poset not a Boolean algebra"), None,
          "orthogonal Boolean posets with maximality are Boolean algebras")
_register("adjebp", "ortho", _agree3(adjoint.adjebp_equiv), is_orthogonal_poset,
          "adjoint product exists exactly on Boolean algebras")
_register("om-implies-paraortho", "ortho",
          _holds(lambda o: not is_orthomodular(o) or is_paraorthomodular(o),
                 "orthomodular but not paraorthomodular"), None,
          "orthomodular structures are paraorthomodular")
_register("weakly-boolean-ba", "ortho",
          _holds(lambda o: not (is_weakly_boolean(o) and is_orthomodular(o)
                                and o.poset.has_maximality()) or is_boolean_algebra(o),
                 "weakly Boolean orthomodular yet not Boolean"), None,
          "weakly Boolean orthomodular maximality forces Booleanness")
_register("kleene-ortho-remark", "ortho", _kleene_remark, None,
          "zero meets are orthogonal in Kleene lattices")
_register("benzene-equiv", "ortho", _benzene, None,
          "hexagon witnesses track non-paraorthomodularity")
_register("distributive-variants", "ortho", _dist_variants, None,
          "the four binary cone identities stand or fall together")
_register("nary-distributivity", "ortho", _nary_dist, None,
          "ternary cone identities on distributive posets")
_register("completeness-finite", "ortho",
          _holds(lambda o: (o.poset.is_mub_complete and o.poset.is_mlb_complete
                            and o.poset.has_maximality()),
                 "finite poset fails a completeness predicate"), None,
          "finite posets satisfy the bound-completeness predicates")


def _items(kind: str, p, invs):
    """The items of stream ``kind`` that the bounded poset ``p`` expands into,
    sized and iterable once per theorem of the stream.

    ``invs`` holds every involution of ``p.n`` points, enumerated once
    per size for the ``lattice-inv`` stream.
    """
    if kind == "ortho":
        return list(ortho_structures(p))
    if kind == "sectioned":
        return list(sectioned_structures(p))
    if kind == "lattice-inv":
        return _LatticeInvolutions(p, invs)
    raise ValueError(f"unknown stream {kind!r}")


def validate_ids(ids: Sequence[str]) -> None:
    """Raise KeyError for an unknown theorem id and ValueError for one given twice."""
    for i, tid in enumerate(ids):
        if tid not in THEOREMS:
            raise KeyError(f"unknown theorem id {tid!r}")
        if tid in ids[:i]:
            raise ValueError(f"theorem id {tid!r} given twice")


def run_harness(max_n: int = 6,
                ids: Optional[Sequence[str]] = None) -> List[HarnessResult]:
    """Check the theorems ``ids`` (default: all) on every structure up to ``max_n``.

    The bounded posets of each size are enumerated once, and the
    involutions of each size are enumerated and checked to be
    involutions once. Each poset is expanded into the items of every
    stream a requested theorem reads (see ``_items``), and each theorem
    of that stream filters them by its ``applies`` and checks the items
    that pass, timed once per poset. A theorem sees its items in
    (n, poset, item) order, and ``seconds`` is its own ``applies`` and
    ``check`` time, not the shared enumeration.
    """
    wanted = sorted(THEOREMS) if ids is None else list(ids)
    validate_ids(wanted)
    results = {tid: HarnessResult(tid, 0, [], 0.0) for tid in wanted}
    by_stream: Dict[str, List[tuple]] = {}
    for tid, res in results.items():
        by_stream.setdefault(THEOREMS[tid].stream, []).append((THEOREMS[tid], res))
    for n in range(2, max_n + 1):
        invs = tuple(involutions(n)) if "lattice-inv" in by_stream else ()
        for inv in invs:
            adjoint.require_involution(n, inv)
        for p in bounded_posets(n):
            for kind, pairs in by_stream.items():
                items = _items(kind, p, invs)
                for th, res in pairs:
                    applies, check = th.applies, th.check
                    t0 = time.perf_counter()
                    chosen = items if applies is None else list(filter(applies, items))
                    found = list(chain.from_iterable(map(check, chosen)))
                    if found:
                        tag = _tag(p)
                        res.violations += [f"{tag} {v}" for v in found]
                    res.seconds += time.perf_counter() - t0
                    res.instances += len(chosen)
    return [results[tid] for tid in wanted]


def find_counterexample(prop_a: str, prop_b: str,
                        max_n: int = 7) -> Tuple[Optional[OrthoPoset], int]:
    """The smallest ortho structure satisfying prop_a but not prop_b, or
    None, with the number of structures skipped on the way because a
    predicate is undefined on them (raises ``PosetError``)."""
    fa, fb = PREDICATES[prop_a], PREDICATES[prop_b]
    skipped = 0
    for n in range(2, max_n + 1):
        for p in bounded_posets(n):
            for o in ortho_structures(p):
                try:
                    if fa(o) and not fb(o):
                        return o, skipped
                except PosetError:
                    skipped += 1
    return None, skipped
