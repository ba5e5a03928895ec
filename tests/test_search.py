import gc
import random
from collections import Counter
from dataclasses import replace
from functools import lru_cache
from itertools import chain, groupby, islice, permutations, product

import pytest
from hypothesis import given, strategies as st

from paraposet import adjoint, amalgam, figures
from paraposet import harness
from paraposet import universe as U
from paraposet import ortho as O
from paraposet.poset import bits

import gallery


def test_bounded_poset_counts():
    # unlabeled bounded posets on n points
    expected = {2: 1, 3: 1, 4: 2, 5: 5, 6: 16, 7: 63}
    for n, count in expected.items():
        assert sum(1 for _ in U.bounded_posets(n)) == count


def test_bounded_poset_count_at_eight():
    # the 318 posets on six points
    assert sum(1 for _ in U.bounded_posets(8)) == 318


def test_bounded_poset_count_at_nine():
    # the 2045 posets on seven points
    assert sum(1 for _ in U.bounded_posets(9)) == 2045


def _leaf_filtered_orders(m):
    # every antisymmetric assignment of the pairs, kept when transitive
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    for choice in product(range(3), repeat=len(pairs)):
        up = [0] * m
        for (i, j), c in zip(pairs, choice):
            if c == 1:
                up[i] |= 1 << j
            elif c == 2:
                up[j] |= 1 << i
        if all(up[j] & ~up[i] == 0 for i in range(m) for j in bits(up[i])):
            yield tuple(up)


@pytest.mark.parametrize("m", range(6))
def test_middle_posets_match_leaf_filter(m):
    # one-point extension reaches every class of the labelled orders, once
    keys = U._middle_posets(m)
    assert len(set(keys)) == len(keys)
    assert set(keys) == {U._canon_middle(o) for o in _leaf_filtered_orders(m)}
    for up in keys:
        assert len(up) == m
        for i in range(m):
            assert not up[i] >> i & 1
            assert all(up[j] & ~up[i] == 0 for j in bits(up[i]))


def _counted_canon(monkeypatch):
    # the orders the generator keys, one entry per call
    calls = []
    canon = U._canon_middle

    def counted(up, inv=None):
        calls.append(up)
        return canon(up, inv)

    monkeypatch.setattr(U, "_canon_middle", counted)
    return calls


def test_middle_levels_built_once_per_process(monkeypatch):
    calls = _counted_canon(monkeypatch)
    U._middle_posets.cache_clear()
    for n in range(2, 8):
        for _ in range(2):
            assert sum(1 for _ in U.bounded_posets(n))
    swept = len(calls)
    U._middle_posets.cache_clear()
    calls.clear()
    U._middle_posets(5)
    assert swept == len(calls) > 0


def test_middle_levels_are_shared_immutable_tuples():
    U._middle_posets.cache_clear()
    top = U._middle_posets(5)
    below = U._middle_posets(3)
    assert type(top) is tuple and type(below) is tuple
    assert all(type(key) is tuple for key in top)
    U._middle_posets.cache_clear()
    assert U._middle_posets(3) == below
    assert list(below) == sorted(below)


def _relabel(up, new):
    out = [0] * len(up)
    for i, row in enumerate(up):
        out[new[i]] = sum(1 << new[j] for j in bits(row))
    return tuple(out)


def _brute_canon(up):
    # the least relabelled matrix over all m! relabellings
    return min(_relabel(up, perm) for perm in permutations(range(len(up))))


@pytest.mark.parametrize("m", range(6))
def test_canonical_form_matches_brute_force(m):
    # both keys split the labelled middle orders into the same classes
    pairs = {(U._canon_middle(up), _brute_canon(up)) for up in _leaf_filtered_orders(m)}
    assert len({k for k, _ in pairs}) == len({b for _, b in pairs}) == len(pairs)


def test_canonical_form_invariant_under_relabelling():
    rng = random.Random(6)
    for _ in range(40):
        up = [0] * 6
        for i in reversed(range(6)):
            for j in range(i + 1, 6):
                if rng.random() < 0.4:
                    up[i] |= 1 << j | up[j]
        key = U._canon_middle(tuple(up))
        assert U._canon_middle(key) == key
        for _ in range(10):
            perm = list(range(6))
            rng.shuffle(perm)
            assert U._canon_middle(_relabel(up, perm)) == key


def _canon_reference(up, inv=None):
    # the least key over every product of permutations of the blocks
    m = len(up)
    down = [0] * m
    for i in range(m):
        for j in bits(up[i]):
            down[j] |= 1 << i
    degree = [(bin(up[i]).count("1"), bin(down[i]).count("1")) for i in range(m)]
    order = sorted(range(m), key=degree.__getitem__)
    blocks = [tuple(g) for _, g in groupby(order, key=degree.__getitem__)]
    best = None
    for choice in product(*(permutations(b) for b in blocks)):
        old = tuple(chain.from_iterable(choice))
        new = [0] * m
        for k, i in enumerate(old):
            new[i] = k
        relabeled = [0] * m
        for i in range(m):
            row = 0
            for j in bits(up[i]):
                row |= 1 << new[j]
            relabeled[new[i]] = row
        key = tuple(relabeled)
        if inv is not None:
            key += tuple(new[inv[i]] for i in old)
        if best is None or key < best:
            best = key
    return best


def _middle_reference(m):
    # every down-set child of the level below, keyed by the reference
    if m == 0:
        return ((),)
    k = m - 1
    children = set()
    for up in _middle_reference(k):
        for mask in range(1 << k):
            if all(up[i] & mask == 0 for i in range(k) if not mask >> i & 1):
                child = tuple(row | (mask >> i & 1) << k for i, row in enumerate(up))
                children.add(_canon_reference(child + (0,)))
    return tuple(sorted(children))


def _strict(o):
    return tuple(row & ~(1 << i) for i, row in enumerate(o.poset.up))


def test_middle_keys_match_the_reference(monkeypatch):
    # every child the generator keys, and every level it builds, for m <= 6
    canon = U._canon_middle
    calls = _counted_canon(monkeypatch)
    U._middle_posets.cache_clear()
    try:
        levels = [U._middle_posets(m) for m in range(7)]
    finally:
        U._middle_posets.cache_clear()
    # 1164 down-set children, less those that take a twin without its predecessor
    assert len(calls) == 731
    assert all(canon(up) == _canon_reference(up) for up in calls)
    assert levels == [_middle_reference(m) for m in range(7)]
    assert [len(level) for level in levels] == [1, 1, 2, 5, 16, 63, 318]


def test_ortho_keys_match_the_reference():
    keyed = 0
    for n in range(2, 9):
        for o in gallery.ortho_posets(n):
            assert U._ortho_key(o) == _canon_reference(_strict(o), o.inv)
            keyed += 1
    assert keyed == 273


@pytest.mark.parametrize("name", ["chain", "fig5", "triangle"])
def test_carrier_keys_match_the_reference(name):
    o = amalgam.build_amalgam(gallery.load(f"{name}/family"))
    up = _strict(o)
    assert U._canon_middle(up) == _canon_reference(up)
    assert U._ortho_key(o) == _canon_reference(up, o.inv)


@pytest.mark.parametrize("name", ["pentagon", "square"])
def test_carrier_keys_invariant_under_relabelling(name):
    o = amalgam.build_amalgam(gallery.load(f"{name}/family"))
    up = _strict(o)
    plain, ortho = U._canon_middle(up), U._ortho_key(o)
    rng = random.Random(name)
    for _ in range(5):
        perm = list(range(o.n))
        rng.shuffle(perm)
        inv = [0] * o.n
        for x, y in enumerate(o.inv):
            inv[perm[x]] = perm[y]
        assert U._canon_middle(_relabel(up, perm)) == plain
        assert U._canon_middle(_relabel(up, perm), inv) == ortho


def test_canonical_search_leaves_no_garbage_cycles():
    # the search is a module-level function, so a call builds no cycle
    # that only the collector could free
    carrier = amalgam.build_amalgam(gallery.load("triangle/family"))
    gc.collect()
    gc.disable()
    try:
        for up in U._middle_posets(5):
            U._canon_middle(up)
        U._canon_middle(_strict(carrier))
        U._ortho_key(carrier)
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


def test_enumeration_leaves_no_garbage_cycles():
    # the pairing search is a module-level function too, so listing
    # involutions, filter rows and the structures built on them, with or
    # without masks, leaves nothing that only the collector could free
    posets = [p for n in range(2, 7) for p in U.bounded_posets(n)]
    lattices = [p for n in range(2, 8) for p in U.bounded_posets(n) if p.is_lattice]
    rng = random.Random(0)
    masks = [(n, [rng.getrandbits(n + 1) for _ in range(n)]) for n in range(8)]
    gc.collect()
    gc.disable()
    try:
        for n, allowed in masks:
            list(U.involutions(n))
            list(U.involutions(n, allowed))
        for p in posets:
            for x in range(p.n):
                U.filter_involutions(p, x)
            list(U.ortho_structures(p))
            list(U.sectioned_structures(p))
        for p in lattices:
            adjoint._omidentity_fits(p)
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


def test_smallest_ortho_universe():
    structures = list(gallery.ortho_posets(2))
    assert len(structures) == 1
    o = structures[0]
    assert o.n == 2 and o.inv == (1, 0)


def test_ortho_universe_counts():
    assert sum(1 for _ in gallery.ortho_posets(6)) == 21
    assert sum(1 for _ in gallery.ortho_posets(7)) == 51


def test_sectioned_universe_count():
    assert sum(1 for _ in gallery.sectioned_posets(6)) == 26


def test_involution_counts():
    # the involutions of n points, A000085
    expected = [1, 1, 2, 4, 10, 26, 76, 232, 764, 2620, 9496]
    assert [sum(1 for _ in U.involutions(n)) for n in range(11)] == expected


@lru_cache(maxsize=None)
def _self_inverse_permutations(n):
    # every permutation of 0..n-1 that is its own inverse, in lexicographic order
    return tuple(perm for perm in permutations(range(n))
                 if all(perm[i] == j for j, i in enumerate(perm)))


def test_involutions_are_the_self_inverse_permutations_in_order():
    for n in range(9):
        assert list(U.involutions(n)) == list(_self_inverse_permutations(n))


# the stream items at n = 7, as the benchmark's traced pass pins them
STREAM_ITEMS_N7 = {"ortho": 51, "sectioned": 50, "lattice-inv": 12296}


def test_each_theorem_is_offered_its_stream_at_n7(monkeypatch):
    # the items each theorem's applies (or its check, where it has none)
    # receives at n = 7; every applies rejects its items, so no check runs
    offered = Counter()

    def counting(tid, result):
        def first(item):
            n = item[0].n if isinstance(item, tuple) else item.n
            offered[tid] += n == 7
            return result
        return first

    for tid, th in harness.THEOREMS.items():
        if th.applies is None:
            th = replace(th, check=counting(tid, []))
        else:
            th = replace(th, applies=counting(tid, False))
        monkeypatch.setitem(harness.THEOREMS, tid, th)
    harness.run_harness(7)
    assert offered == {tid: STREAM_ITEMS_N7[th.stream]
                       for tid, th in harness.THEOREMS.items()}


@st.composite
def involution_masks(draw):
    n = draw(st.integers(min_value=0, max_value=7))
    # masks may name points past n, which no involution can reach
    return n, draw(st.lists(st.integers(min_value=0, max_value=(1 << n + 1) - 1),
                            min_size=n, max_size=n))


def _involutions_reference(n, allowed=None):
    # the backtracker on bare points that the pairing search replaced
    full = (1 << n) - 1
    if allowed is None:
        allowed = [full] * n
    inv = [-1] * n

    def rec(free):
        if not free:
            yield tuple(inv)
            return
        x = (free & -free).bit_length() - 1
        for a in bits(allowed[x] & free):
            if not allowed[a] >> x & 1:
                continue
            inv[x], inv[a] = a, x
            yield from rec(free & ~(1 << x | 1 << a))

    yield from rec(full)


@given(involution_masks())
def test_masked_involutions_filter_the_unmasked_ones(case):
    n, allowed = case
    want = [inv for inv in _self_inverse_permutations(n)
            if all(allowed[x] >> a & 1 for x, a in enumerate(inv))]
    assert list(U.involutions(n, allowed)) == want
    assert list(_involutions_reference(n, allowed)) == want


def test_involutions_are_antitone():
    for p in U.bounded_posets(5):
        for inv in U.antitone_involutions(p):
            O.validate_involution(p, inv)  # raises unless antitone and involutive


def _filter_reference(p, x):
    # each involution of the filter's points that reverses the order
    points = list(bits(p.up[x]))
    rows = set()
    for inv in _self_inverse_permutations(len(points)):
        row = [-1] * p.n
        for k, o in enumerate(points):
            row[o] = points[inv[k]]
        if all(p.leq(row[b], row[a]) for a in points for b in bits(p.up[a])):
            rows.add(tuple(row))
    return rows


def test_filter_involutions_match_brute_force():
    for n in range(1, 8):
        for p in U.bounded_posets(n):
            assert U.antitone_involutions(p) == U.filter_involutions(p, p.bottom)
            for x in range(p.n):
                rows = U.filter_involutions(p, x)
                assert len(set(rows)) == len(rows)
                for row in rows:
                    assert [y for y in range(p.n) if row[y] < 0] == list(
                        bits(p.full & ~p.up[x]))
                assert set(rows) == _filter_reference(p, x)


def _filter_involutions_reference(p, x):
    # the backtracker with four ``leq`` calls per assigned pair
    n, filt = p.n, p.up[x]
    inv = [-1] * n
    inv[x], inv[p.top] = p.top, x
    down_sizes = [bin(p.down[i] & filt).count("1") for i in range(n)]
    up_sizes = [bin(p.up[i]).count("1") for i in range(n)]
    points = sorted(bits(filt), key=lambda i: (down_sizes[i], i))
    rows = []

    def antitone_ok(a, b):
        for c in points:
            d = inv[c]
            if d >= 0 and (p.leq(a, c) != p.leq(d, b) or p.leq(c, a) != p.leq(b, d)):
                return False
        return True

    def rec(k):
        while k < len(points) and inv[points[k]] >= 0:
            k += 1
        if k == len(points):
            rows.append(tuple(inv))
            return
        a = points[k]
        for b in bits(filt):
            if (inv[b] >= 0 and b != a) or not (
                    down_sizes[a] == up_sizes[b] and up_sizes[a] == down_sizes[b]):
                continue
            inv[a], inv[b] = b, a
            if antitone_ok(a, b) and (b == a or antitone_ok(b, a)):
                rec(k + 1)
            inv[a] = inv[b] = -1

    rec(0)
    return rows


def _assert_filter_rows_match_reference(p):
    per_elem = [_filter_involutions_reference(p, x) for x in range(p.n)]
    for x, want in enumerate(per_elem):
        assert U.filter_involutions(p, x) == want
    assert U.antitone_involutions(p) == per_elem[p.bottom]
    # the families, in order, of the product over every filter (the
    # carriers have up to 19,200,000, so only the first few there)
    got = islice(U.sectioned_structures(p), 1000)
    assert [s.sections for s in got] == list(islice(product(*per_elem), 1000))


def test_filter_rows_match_the_replaced_backtracker():
    posets = [p for n in range(2, 9) for p in U.bounded_posets(n)]
    assert len(posets) == 406
    for p in posets:
        _assert_filter_rows_match_reference(p)


@pytest.mark.parametrize("name", ["chain", "fig5", "pentagon", "square", "triangle"])
def test_filter_rows_match_the_replaced_backtracker_on_fixture_carriers(name):
    _assert_filter_rows_match_reference(
        amalgam.build_amalgam(gallery.load(f"{name}/family")).poset)


def _brute_orthoisomorphic(a, b):
    # an order- and involution-preserving bijection among all n! maps
    if a.n != b.n:
        return False
    pa, pb = a.poset, b.poset
    for perm in permutations(range(a.n)):
        if perm[pa.bottom] != pb.bottom or perm[pa.top] != pb.top:
            continue
        ok = all(
            pa.leq(x, y) == pb.leq(perm[x], perm[y])
            for x in range(a.n) for y in range(a.n)
        ) and all(perm[a.inv[x]] == b.inv[perm[x]] for x in range(a.n))
        if ok:
            return True
    return False


def test_orthoisomorphic_matches_brute_force():
    pairs = 0
    for n in range(2, 7):
        structures = list(gallery.ortho_posets(n))
        for a in structures:
            for b in structures:
                assert U.is_orthoisomorphic(a, b) == _brute_orthoisomorphic(a, b)
                pairs += 1
    assert pairs == 488


def test_n10_figures_appear_in_universe():
    # the drawings with n = 10, each reached by the full n = 10 sweep; a
    # poset's automorphisms can conjugate two of its involutions, so a
    # figure may match more than one structure
    targets = {name: gallery.ortho(name) for name in ("fig1b", "fig2b", "fig8")}
    posets = 0
    found = Counter()
    for p in U.bounded_posets(10):
        posets += 1
        for o in U.ortho_structures(p):
            found.update(name for name, t in targets.items()
                         if U.is_orthoisomorphic(o, t))
    assert posets == 16999
    assert found == {"fig1b": 2, "fig2b": 2, "fig8": 6}


def test_fig1a_appears_in_universe():
    target = gallery.ortho("fig1a")
    hits = [o for o in gallery.ortho_posets(6)
            if O.is_paraorthomodular(o) and not O.is_orthogonal_poset(o)
            and U.is_orthoisomorphic(o, target)]
    assert hits


def test_fig2a_appears_in_universe():
    target = gallery.ortho("fig2a")
    hits = [o for o in gallery.ortho_posets(6)
            if O.is_sharply_paraorthomodular(o) and o.poset.is_lattice
            and U.is_orthoisomorphic(o, target)]
    assert hits


def test_small_figures_keep_profiles_in_universe():
    # every drawing small enough for the sweep is reachable at its size
    for target in (gallery.ortho("fig1a"), gallery.ortho("fig2a"), gallery.ortho("fig3"),
                   gallery.ortho("fig4"), gallery.ortho("fig7"), figures.boolean_cube(),
                   gallery.ortho("fig1c"), gallery.ortho("fig5")):
        assert any(U.is_orthoisomorphic(o, target)
                   for o in gallery.ortho_posets(target.n))


def test_counterexample_paraortho_not_orthomodular():
    found, skipped = harness.find_counterexample("paraorthomodular", "orthomodular",
                                                 max_n=6)
    assert found is not None and skipped == 0
    assert O.is_paraorthomodular(found) and not O.is_orthomodular(found)


def test_no_orthomodular_without_paraortho():
    assert harness.find_counterexample("orthomodular", "paraorthomodular",
                                       max_n=7) == (None, 0)


def test_counterexample_search_counts_undefined_structures():
    # regular is undefined where some x ^ x' is missing: on 2 structures
    # at n = 8 and on 9 more at n = 9
    assert harness.find_counterexample("regular", "regular", max_n=7) == (None, 0)
    assert harness.find_counterexample("regular", "regular", max_n=8) == (None, 2)
    undefined = 0
    for o in gallery.ortho_posets(8):
        try:
            O.is_regular(o)
        except O.UndefinedTerm:
            undefined += 1
    assert undefined == 2


def test_counterexample_search_propagates_crashes(monkeypatch):
    def broken(o):
        raise RuntimeError("predicate crashed")

    monkeypatch.setitem(O.PREDICATES, "orthomodular", broken)
    with pytest.raises(RuntimeError, match="predicate crashed"):
        harness.find_counterexample("orthomodular", "paraorthomodular", max_n=3)


def test_harness_small_sweep_clean():
    results = harness.run_harness(max_n=5)
    assert len(results) == len(harness.THEOREMS)
    for res in results:
        assert res.ok, (res.theorem, res.violations)
        assert res.instances >= 0


def test_harness_deterministic():
    a = harness.run_harness(max_n=4, ids=["th1", "omui", "sasom"])
    b = harness.run_harness(max_n=4, ids=["th1", "omui", "sasom"])
    assert [r.as_dict() for r in a] == [r.as_dict() for r in b]


def test_harness_enumerates_bounded_posets_once_per_n(monkeypatch):
    # one poset pass per n feeds all three streams
    calls = []
    enumerate_posets = U.bounded_posets

    def counted(n, *args):
        calls.append(n)
        return enumerate_posets(n, *args)

    monkeypatch.setattr(harness, "bounded_posets", counted)
    results = harness.run_harness(max_n=5)
    assert calls == [2, 3, 4, 5]
    assert {harness.THEOREMS[r.theorem].stream for r in results} == {
        "ortho", "sectioned", "lattice-inv"}
    assert [r.theorem for r in results] == sorted(harness.THEOREMS)


def test_every_theorem_is_non_vacuous():
    # each hypothesis holds on some structure of the sweep
    vacuous = [r.theorem for r in harness.run_harness(max_n=6) if r.instances == 0]
    assert vacuous == []


def test_harness_results_follow_requested_order():
    ids = ["sasom", "omidentity", "th2", "th1"]
    results = harness.run_harness(max_n=4, ids=ids)
    assert [r.theorem for r in results] == ids
    for r in results:
        [alone] = harness.run_harness(max_n=4, ids=[r.theorem])
        assert alone.as_dict() == r.as_dict()


def test_unknown_theorem_rejected():
    with pytest.raises(KeyError):
        harness.run_harness(max_n=3, ids=["no-such-theorem"])
