import os
import pathlib
import subprocess
import sys

from paraposet import figures
from paraposet import adjoint as A
from paraposet import implication as I
from paraposet.poset import bits


def test_cube_full_adjoint_pair():
    cube = figures.boolean_cube()
    rep = A.check_conditions(cube, I.sasaki_proj(cube), I.sasaki_impl(cube))
    assert (rep.holds_A, rep.holds_B, rep.holds_A21, rep.holds_B12) == (
        True, True, True, True)


def test_fig2a_sasaki_pair_fails():
    o = figures.fig2a()
    rep = A.check_conditions(o, I.sasaki_proj(o), I.sasaki_impl(o))
    assert not rep.holds_A and not rep.holds_B
    assert rep.witness_A is not None


def test_forward_backward_equivalence():
    for builder in (figures.fig2a, figures.fig2b, figures.fig3,
                    figures.boolean_cube, figures.fig4):
        assert A.lemma_AB_equiv(builder())


def test_om_identities_match_adjointness():
    f4 = figures.fig4()
    assert A.omidentity_equiv(f4.poset, f4.inv) == (False, False, True)
    cube = figures.boolean_cube()
    assert A.omidentity_equiv(cube.poset, cube.inv) == (True, True, True)


def test_subscripted_adjointness_is_orthomodularity():
    assert A.sasom_equiv(figures.boolean_cube()) == (True, True, True)
    assert A.sasom_equiv(figures.fig2a()) == (False, False, True)


def test_mixed_pair_condition_forces_orthomodularity():
    for builder in (figures.fig2a, figures.fig3, figures.boolean_cube):
        rep = A.th3_check(builder())
        assert rep.consistent
    for builder in (figures.fig2a, figures.fig2b, figures.boolean_cube):
        rep = A.posth3_check(builder())
        assert rep.consistent


def test_cube_residuation_recovers_meet():
    cube = figures.boolean_cube()
    p = cube.poset
    res = A.residuate(cube, I.impl_I(cube))
    assert res.adjoint and res.failure is None
    for x in range(p.n):
        for y in range(p.n):
            assert res.product.cell(x, y) == 1 << p.meet(x, y)


def test_adjoint_consequences_on_cube():
    cube = figures.boolean_cube()
    res = A.residuate(cube, I.impl_I(cube))
    rep = A.adji_consequences(cube, res.product)
    assert not rep.violations, rep.violations


def test_adjoint_exists_exactly_for_boolean_algebras():
    assert A.adjebp_equiv(figures.boolean_cube()) == (True, True, True)
    for builder in (figures.fig2a, figures.fig2b, figures.fig3, figures.fig4):
        boolean, adjoint, agree = A.adjebp_equiv(builder())
        assert agree and not boolean


def test_boolean_poset_bridge():
    verdict = A.adjibp_check(figures.boolean_cube())
    assert verdict in (None, True)
    assert A.adjibp_check(figures.fig2a()) in (None, True)


def test_involution_check_survives_optimisation():
    # under python -O a bare assert would vanish and the call return verdicts
    root = pathlib.Path(__file__).resolve().parent.parent
    code = ("if __debug__: raise SystemExit('not optimised')\n"
            "from paraposet.adjoint import omidentity_equiv\n"
            "from paraposet.poset import FinitePoset\n"
            "p = FinitePoset.from_covers('0ab1', ['0a', '0b', 'a1', 'b1'])\n"
            "omidentity_equiv(p, (1, 2, 3, 0))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True)
    assert res.returncode == 1
    assert "AssertionError: not an involution" in res.stderr
