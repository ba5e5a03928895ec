"""Re-verification of every statement on exhaustively enumerated structures.

Each registered check is offered the items of one stream of small
structures and returns violation strings (expected: none). A run walks
the bounded posets once per size n and expands each poset into the
items of every requested stream: its antitone involutions (``ortho``),
its section families (``sectioned``) and, on lattices, all its
involutions (``lattice-inv``). Streams and results are fully
deterministic, so repeated runs with equal settings produce identical
reports.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from . import adjoint, implication, relative
from .ortho import (OrthoPoset, PREDICATES, find_benzene, is_boolean_algebra,
                    is_kleene_lattice, is_orthogonal_poset, is_orthomodular,
                    is_paraorthomodular, is_sharply_paraorthomodular,
                    is_weakly_boolean, orthomodular_verdicts, paraortho_witness)
from .poset import PosetError, distributive_nary
from .universe import (bounded_posets, involutions, ortho_posets,
                       ortho_structures, sectioned_structures)


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


def _tag(o) -> str:
    p = o.poset if hasattr(o, "poset") else o
    key = repr((p.labels, p.up)).encode()
    return f"n={p.n}:{zlib.crc32(key):08x}"


def _report_th(check):
    def run(o):
        rep = check(o)
        out = [f"{_tag(o)} clause {v}" for v in rep.violations]
        out += [f"{_tag(o)} clause {v} (elementwise)" for v in rep.violations_elementwise]
        return out
    return run


def _agree3(fn):
    def run(o):
        a, b, agree = fn(o)
        return [] if agree else [f"{_tag(o)} verdicts {a} vs {b}"]
    return run


def _lattice(o):
    return o.poset.is_lattice


def _check_under_c(s):
    try:
        ok, _ = implication.cached(s, relative.check_C)
    except implication.JoinMissing:
        return False
    return ok


def _relpara_c(s):
    d, l, agree = relative.relpara_via_impl_under_C(s)
    return [] if agree else [f"{_tag(s)} verdicts {d} vs {l}"]


def _omui(o):
    d, u, ue = implication.cached(o, orthomodular_verdicts)
    return [] if d == u == ue else [f"{_tag(o)} verdicts {d}/{u}/{ue}"]


def _ab_equiv(o):
    return [] if adjoint.lemma_AB_equiv(o) else [f"{_tag(o)} A/B verdicts split"]


def _th3(o):
    rep = adjoint.th3_check(o)
    return [] if rep.consistent else [f"{_tag(o)} condition holds yet not orthomodular"]


def _posth3(o):
    rep = adjoint.posth3_check(o)
    return [] if rep.consistent else [f"{_tag(o)} condition holds yet not orthomodular"]


def _adji(o):
    prod = implication.cached(o, adjoint.cone_adjoint)
    if prod is None:
        return []
    rep = adjoint.adji_consequences(o, prod)
    return [f"{_tag(o)} clause {v}" for v in rep.violations]


def _adjibp(o):
    verdict = adjoint.adjibp_check(o)
    return [] if verdict in (None, True) else [f"{_tag(o)} Boolean poset not a Boolean algebra"]


def _om_implies_p(o):
    if is_orthomodular(o) and not is_paraorthomodular(o):
        return [f"{_tag(o)} orthomodular but not paraorthomodular"]
    return []


def _wb_ba(o):
    if (is_weakly_boolean(o) and is_orthomodular(o)
            and o.poset.has_maximality() and not is_boolean_algebra(o)):
        return [f"{_tag(o)} weakly Boolean orthomodular yet not Boolean"]
    return []


def _kleene_remark(o):
    if not is_kleene_lattice(o):
        return []
    p = o.poset
    out = []
    for x in range(p.n):
        for y in range(p.n):
            if p.meet(x, y) == p.bottom and not p.leq(x, o.inv[y]):
                out.append(f"{_tag(o)} zero meet without orthogonality at "
                           f"({p.labels[x]}, {p.labels[y]})")
    return out


def _benzene(o):
    try:
        w = find_benzene(o)
    except AssertionError as exc:
        return [f"{_tag(o)} {exc}"]
    if (w is None) != (paraortho_witness(o) is None):
        return [f"{_tag(o)} hexagon presence disagrees with the predicate"]
    return []


def _duality(o):
    return [] if implication.duality_check(o) else [f"{_tag(o)} duality broken"]


def _dist_variants(o):
    # the four identities stand or fall together: on a distributive poset
    # none may fail, on any other poset one must
    p = o.poset
    fails = p.distributive_variant_failure
    if p.is_distributive and fails is not None:
        x, y, z = fails
        return [f"{_tag(o)} variant split at ({x},{y},{z})"]
    if not p.is_distributive and fails is None:
        return [f"{_tag(o)} predicate false yet every variant holds"]
    return []


def _nary_dist(o):
    p = o.poset
    if not p.is_distributive:
        return []
    from itertools import combinations
    for xs in combinations(range(p.n), 3):
        for z in range(p.n):
            a, b = distributive_nary(p, xs, z)
            if not (a and b):
                return [f"{_tag(o)} n-ary identity fails at {xs},{z}"]
    return []


def _mub_small(o):
    p = o.poset
    if not (p.is_mub_complete() and p.is_mlb_complete() and p.has_maximality()):
        return [f"{_tag(o)} finite poset fails a completeness predicate"]
    return []


def _lattice_involutions(p):
    if p.is_lattice:
        for inv in involutions(p.n):
            yield (p, inv)


def _omid(pair):
    p, inv = pair
    oi, adj, agree = adjoint.omidentity_equiv(p, inv)
    return [] if agree else [f"{_tag(p)} inv={inv} verdicts {oi} vs {adj}"]


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
_register("i2-antitone", "ortho",
          lambda o: [] if implication.antitone_first_arg_I2(o) else [f"{_tag(o)} not antitone"],
          _lattice, "lattice implication antitone in the first slot")
_register("i1-matches-i2", "ortho", lambda o: [
    f"{_tag(o)} cells differ at ({x},{y})"
    for t1, t2 in [(implication.cached(o, implication.impl_I),
                    implication.cached(o, implication.impl_I2))]
    for x in range(o.n) for y in range(o.n) if t1.cell(x, y) != t2.cell(x, y)
], _lattice, "set and lattice implications agree on lattices")
_register("duality", "ortho", _duality, is_orthogonal_poset,
          "cone implication is the flipped Sasaki implication")
_register("th2", "sectioned", _report_th(relative.check_th2),
          relative.is_relatively_paraorthomodular,
          "elementary laws of the section implication")
_register("para-via-i3", "sectioned", _agree3(relative.para_via_I3), None,
          "global paraorthomodularity via the section implication")
_register("relpara-under-c", "sectioned", _relpara_c, _check_under_c,
          "relative paraorthomodularity via the unit law under compatibility")
_register("i4-antitone", "sectioned",
          lambda s: [] if relative.antitone_first_arg_I4(s) else [f"{_tag(s)} not antitone"],
          lambda s: s.poset.is_lattice,
          "join-semilattice implication antitone in the first slot")
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
_register("th3", "ortho", _th3, _lattice,
          "forward condition for the mixed pair forces orthomodularity")
_register("posth3", "ortho", _posth3, is_orthogonal_poset,
          "poset variant of the mixed-pair condition")
_register("adji", "ortho", _adji, is_orthogonal_poset,
          "consequences of an adjoint product for the cone implication")
_register("adjibp", "ortho", _adjibp, None,
          "orthogonal Boolean posets with maximality are Boolean algebras")
_register("adjebp", "ortho", _agree3(adjoint.adjebp_equiv), is_orthogonal_poset,
          "adjoint product exists exactly on Boolean algebras")
_register("om-implies-paraortho", "ortho", _om_implies_p, None,
          "orthomodular structures are paraorthomodular")
_register("weakly-boolean-ba", "ortho", _wb_ba, None,
          "weakly Boolean orthomodular maximality forces Booleanness")
_register("kleene-ortho-remark", "ortho", _kleene_remark, None,
          "zero meets are orthogonal in Kleene lattices")
_register("benzene-equiv", "ortho", _benzene, None,
          "hexagon witnesses track non-paraorthomodularity")
_register("distributive-variants", "ortho", _dist_variants, None,
          "the four binary cone identities stand or fall together")
_register("nary-distributivity", "ortho", _nary_dist, None,
          "ternary cone identities on distributive posets")
_register("completeness-finite", "ortho", _mub_small, None,
          "finite posets satisfy the bound-completeness predicates")


def _items(kind: str, p):
    """The items of stream ``kind`` that the bounded poset ``p`` expands into."""
    if kind == "ortho":
        return ortho_structures(p)
    if kind == "sectioned":
        return sectioned_structures(p)
    if kind == "lattice-inv":
        return _lattice_involutions(p)
    raise ValueError(f"unknown stream {kind!r}")


def run_harness(max_n: int = 6,
                ids: Optional[Sequence[str]] = None) -> List[HarnessResult]:
    """Check the theorems ``ids`` (default: all) on every structure up to ``max_n``.

    The bounded posets of each size are enumerated once; each poset is
    expanded into the items of every stream a requested theorem reads,
    and each item is offered to every theorem of its stream. A theorem
    sees its items in (n, poset, item) order, and ``seconds`` is its own
    ``applies`` and ``check`` time, not the shared enumeration.
    """
    wanted = sorted(THEOREMS) if ids is None else list(ids)
    for tid in wanted:
        if tid not in THEOREMS:
            raise KeyError(f"unknown theorem id {tid!r}")
    results = {tid: HarnessResult(tid, 0, [], 0.0) for tid in wanted}
    by_stream: Dict[str, List[tuple]] = {}
    for tid, res in results.items():
        by_stream.setdefault(THEOREMS[tid].stream, []).append((THEOREMS[tid], res))
    for n in range(2, max_n + 1):
        for p in bounded_posets(n):
            for kind, pairs in by_stream.items():
                for item in _items(kind, p):
                    for th, res in pairs:
                        t0 = time.perf_counter()
                        if th.applies is None or th.applies(item):
                            res.instances += 1
                            res.violations.extend(th.check(item))
                        res.seconds += time.perf_counter() - t0
    return [results[tid] for tid in wanted]


def find_counterexample(prop_a: str, prop_b: str,
                        max_n: int = 7) -> Optional[OrthoPoset]:
    """Smallest enumerated structure satisfying prop_a but not prop_b."""
    fa, fb = PREDICATES[prop_a], PREDICATES[prop_b]
    for n in range(2, max_n + 1):
        for o in ortho_posets(n):
            try:
                if fa(o) and not fb(o):
                    return o
            except PosetError:
                continue
    return None
