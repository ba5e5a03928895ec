"""Every verdict is invariant under relabelling the elements.

The enumerator puts the bottom at index 0, the top last and the other
elements in a linear-extension order, so no sweep shows a kernel that
assumes that order. Here each bounded poset with n <= 7 gets a seeded
random relabelling that moves the bottom off index 0 and the top off
the last index. On each of its ortho, sectioned and lattice/involution
structures, every theorem's ``applies`` and ``check`` verdicts, and on
the ortho structures every predicate, must equal the original's.
"""

import random

import pytest

from paraposet import universe as U
from paraposet.harness import THEOREMS
from paraposet.ortho import PREDICATES, OrthoPoset
from paraposet.poset import FinitePoset, PosetError, bits
from paraposet.relative import SectionedPoset


def _relabelling(p, rng):
    """A random permutation of the indices of ``p`` that moves its bottom
    off index 0 and its top off the last index."""
    perm = list(range(p.n))
    while perm[p.bottom] == 0 or perm[p.top] == p.n - 1:
        rng.shuffle(perm)
    return perm


def _relabelled_poset(p, perm):
    labels, up = [""] * p.n, [0] * p.n
    for i in range(p.n):
        labels[perm[i]] = p.labels[i]
        up[perm[i]] = sum(1 << perm[j] for j in bits(p.up[i]))
    return FinitePoset(labels, up, name=p.name)


def _relabelled_row(row, perm):
    """An involution or section row of the original, in the new indices."""
    out = [-1] * len(row)
    for i, v in enumerate(row):
        out[perm[i]] = -1 if v < 0 else perm[v]
    return tuple(out)


def _relabelled_sections(sections, perm):
    out = [()] * len(sections)
    for x, row in enumerate(sections):
        out[perm[x]] = _relabelled_row(row, perm)
    return tuple(out)


def _outcome(fn, item):
    try:
        return fn(item)
    except PosetError as exc:
        return type(exc)


def _theorem_verdicts(stream, item):
    out = []
    for th in THEOREMS.values():
        if th.stream == stream:
            applies = th.applies is None or th.applies(item)
            out.append((th.id, applies, applies and not th.check(item)))
    return out


def _structure_pairs(p, q, perm):
    """Each structure on ``p`` with the same structure relabelled onto ``q``."""
    for inv in U.antitone_involutions(p):
        yield "ortho", OrthoPoset(p, inv), OrthoPoset(q, _relabelled_row(inv, perm))
    for s in U.sectioned_structures(p):
        yield "sectioned", s, SectionedPoset(q, _relabelled_sections(s.sections, perm))
    if p.is_lattice:
        for inv in U.involutions(p.n):
            yield "lattice-inv", (p, inv), (q, _relabelled_row(inv, perm))


@pytest.mark.parametrize("n", range(2, 8))
def test_verdicts_survive_a_relabelling(n):
    rng = random.Random(n)
    counts = {"ortho": 0, "sectioned": 0, "lattice-inv": 0}
    for p in U.bounded_posets(n):
        perm = _relabelling(p, rng)
        q = _relabelled_poset(p, perm)
        assert (q.bottom, q.top) == (perm[p.bottom], perm[p.top]) and q.bottom != 0
        for stream, a, b in _structure_pairs(p, q, perm):
            counts[stream] += 1
            assert _theorem_verdicts(stream, a) == _theorem_verdicts(stream, b), (p, perm)
            if stream == "ortho":
                for name, fn in PREDICATES.items():
                    assert _outcome(fn, a) == _outcome(fn, b), (name, p, perm)
        # the relabelled poset expands into the relabelled structures
        assert sorted(U.antitone_involutions(q)) == sorted(
            _relabelled_row(inv, perm) for inv in U.antitone_involutions(p))
        assert sorted(s.sections for s in U.sectioned_structures(q)) == sorted(
            _relabelled_sections(s.sections, perm) for s in U.sectioned_structures(p))
    assert counts == {2: {"ortho": 1, "sectioned": 1, "lattice-inv": 2},
                      3: {"ortho": 1, "sectioned": 1, "lattice-inv": 4},
                      4: {"ortho": 3, "sectioned": 3, "lattice-inv": 20},
                      5: {"ortho": 6, "sectioned": 6, "lattice-inv": 130},
                      6: {"ortho": 21, "sectioned": 26, "lattice-inv": 1140},
                      7: {"ortho": 51, "sectioned": 50, "lattice-inv": 12296}}[n]
