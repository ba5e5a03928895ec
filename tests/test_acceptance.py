"""End-to-end acceptance checks, one per headline claim.

Each test prints a single pass/fail line directly to the terminal so a
plain pytest run doubles as the acceptance report.
"""

import time

import pytest

from paraposet import amalgam as am
from paraposet import fileformat as ff
from paraposet import figures, harness
from paraposet import ortho as O
from paraposet import relative as R
from paraposet.poset import bits
from paraposet.universe import is_orthoisomorphic

import gallery
from gallery import FIXTURES


@pytest.fixture
def report(capsys):
    def emit(num, label, ok):
        with capsys.disabled():
            print(f"acceptance {num} {label}: {'PASS' if ok else 'FAIL'}")
        assert ok, f"acceptance criterion {num} ({label})"
    return emit


def _profile(o):
    return (o.poset.is_lattice, O.is_paraorthomodular(o),
            O.is_sharply_paraorthomodular(o), O.is_orthomodular(o))


def test_figure_gallery(report):
    t0 = time.perf_counter()
    #            lattice paraortho sharply orthomodular
    expected = {
        "fig1a": (False, True, False, False),
        "fig1b": (False, True, False, False),
        "fig1c": (False, True, False, False),
        "fig2a": (True, True, True, False),
        "fig2b": (False, True, True, False),
        "fig3": (True, True, True, False),
        "fig4": (True, False, False, False),
        "fig5": (True, True, True, False),
        "fig7": (True, False, False, False),
        "fig8": (True, True, True, False),
    }
    ok = True
    for name, want in expected.items():
        ok = ok and _profile(gallery.ortho(name)) == want
    b2 = gallery.ortho("fig2b")
    ok = ok and O.orthomodular_witness(b2) == (
        b2.poset.index("b"), b2.poset.index("d'"))
    f7 = gallery.ortho("fig7")
    ok = ok and O.paraortho_witness(f7) == (
        f7.poset.index("a"), f7.poset.index("b'"))
    ok = ok and time.perf_counter() - t0 < 1.0
    report(1, "figure gallery classification", ok)


def test_section_implication_table(report):
    from test_relative import EXPECTED_I3_FIG1A, labels_of
    s = gallery.load("fig1a")
    p = s.poset
    t = R.impl_I3(s)
    ok = all(
        labels_of(p, t.cell(p.index(rx), p.index(cy))) == EXPECTED_I3_FIG1A[rx][cy]
        for rx in p.labels for cy in p.labels)
    report(2, "36-cell section implication table", ok)


def test_amalgam_theorems(report):
    t0 = time.perf_counter()
    tri_fam = figures.greechie_cycle(3)
    tri_carrier = am.build_amalgam(tri_fam)
    tri = am.classify_amalgam(tri_fam, tri_carrier)
    sq = am.classify_amalgam(figures.greechie_cycle(4))
    ch = am.classify_amalgam(gallery.load("chain/family"))
    ok = (O.is_paraorthomodular(tri_carrier) and not tri.direct_sharply
          and tri.join_witness is not None and tri.agree)
    ok = ok and (sq.direct_sharply and not sq.direct_lattice and sq.agree)
    ok = ok and (ch.direct_lattice and ch.direct_sharply and ch.agree)
    ok = ok and time.perf_counter() - t0 < 5.0
    report(3, "pasting classification at desk scale", ok)


def test_exhaustive_harness(report):
    # seconds per result leave out the shared enumeration: time the whole run
    t0 = time.perf_counter()
    results = harness.run_harness(max_n=6)
    ok = (len(results) == len(harness.THEOREMS)
          and all(r.ok for r in results)
          and time.perf_counter() - t0 < 600)
    report(4, "theorem harness n<=6", ok)


def test_known_separations(report):
    found, _ = harness.find_counterexample("paraorthomodular", "orthomodular",
                                           max_n=6)
    ok = found is not None
    # the canonical six-element witness is reachable by the same sweep
    target = gallery.ortho("fig1a")
    ok = ok and any(
        O.is_paraorthomodular(o) and not O.is_orthomodular(o)
        and is_orthoisomorphic(o, target)
        for o in gallery.ortho_posets(6))
    b2 = gallery.load("fig2b")
    ok = ok and b2.n == 10
    ok = ok and O.is_sharply_paraorthomodular(b2) and not b2.poset.is_lattice
    ok = ok and harness.find_counterexample("orthomodular", "paraorthomodular",
                                            max_n=7) == (None, 0)
    report(5, "known separations", ok)


def test_cover_anomaly(report):
    fam = gallery.load("fig5/family")
    carrier = am.build_amalgam(fam)
    rep = am.cover_transfer(fam, carrier)
    p = carrier.poset
    ok = rep.ok
    hit = [e for e in rep.exceptions
           if p.labels[e[0]] == "a" and p.labels[e[1]] == "a'"]
    ok = ok and len(hit) == 1
    ok = ok and "c" in {p.labels[i] for i in bits(hit[0][3])}
    report(6, "block cover lost across the pasting", ok)


def test_round_trip_and_determinism(report):
    paths = sorted(FIXTURES.rglob("*.poset"))
    ok = len(paths) >= 15
    for path in paths:
        text = path.read_text()
        built = ff.build(ff.parse(text), basedir=str(path.parent))
        ok = ok and ff.emit(built) == text
    runs = []
    for _ in range(2):
        results = harness.run_harness(max_n=4)
        runs.append([r.as_dict() for r in results])
    ok = ok and runs[0] == runs[1]
    report(7, "round-trip and report determinism", ok)
