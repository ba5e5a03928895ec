import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import pytest

from paraposet import amalgam as am, cli, fileformat as ff, harness, implication, relative, render
from paraposet.ortho import PREDICATES
from paraposet.poset import FinitePoset, PosetError

import gallery
from gallery import FIXTURES

ROOT = pathlib.Path(__file__).resolve().parent.parent


def all_fixture_files():
    return sorted(FIXTURES.rglob("*.poset"))


def test_fixtures_exist():
    names = {p.name for p in all_fixture_files()}
    assert {"fig1a.poset", "fig2a.poset", "fig2b.poset", "fig4.poset",
            "fig8.poset", "cube.poset"} <= names
    assert (FIXTURES / "fig5" / "family.poset").exists()
    assert (FIXTURES / "triangle" / "family.poset").exists()


@pytest.mark.parametrize("path", all_fixture_files(), ids=lambda p: str(p.relative_to(FIXTURES)))
def test_round_trip_identity(path):
    text = path.read_text()
    built = ff.build(ff.parse(text), basedir=str(path.parent))
    assert ff.emit(built) == text


@pytest.mark.parametrize("name_line", ["name chain\n", ""], ids=["named", "unnamed"])
def test_family_file_round_trip_keeps_its_name_and_block_paths(tmp_path, name_line):
    for block, path in (("K1", "one.poset"), ("K2", "two.poset")):
        (tmp_path / path).write_text((FIXTURES / "chain" / f"{block}.poset").read_text())
    text = (name_line + "family\nblock K1 one.poset\nblock K2 two.poset\n"
            "identify K1:p K2:p\nidentify K1:p' K2:p'\n")
    assert ff.emit(ff.parse(text), basedir=str(tmp_path)) == text


def test_emit_idempotent():
    o = gallery.ortho("fig2a")
    once = ff.emit(o)
    twice = ff.emit(ff.build(ff.parse(once)))
    assert once == twice


def test_parse_error_positions():
    with pytest.raises(ff.ParseError) as err:
        ff.parse("elements 0 1\nbogus 0 1\n")
    assert err.value.line_no == 2


@pytest.mark.parametrize("text, message", [
    ("name a\nelements 0 1\nname b\n", "line 3: duplicate name line"),
    ("elements 0 1\nblock K1 K1.poset\n", "line 2: block line in a poset file"),
    ("elements 0 1\nidentify K1:a K2:a\n", "line 2: identify line in a poset file"),
    ("family\nblock K1 K1.poset\nelements 0 1\n", "line 3: elements line in a family file"),
    ("cover 0 1\nfamily\nblock K1 K1.poset\n", "line 1: cover line in a family file"),
    ("family\nblock K1 K1.poset\ninv 0 1\ncover 0 1\n",
     "line 3: inv line in a family file"),
    ("family\nblock K1 K1.poset\nsection 0 1 0\n", "line 3: section line in a family file"),
], ids=["second-name", "block-in-poset", "identify-in-poset", "elements-in-family",
        "cover-before-family", "inv-in-family", "section-in-family"])
def test_parse_rejects_lines_it_would_drop(text, message):
    # a second name would overwrite the first, and a line the file's
    # kind never reads would be dropped: both name their line instead
    with pytest.raises(ff.ParseError, match=f"^{message}$"):
        ff.parse(text)


def test_family_line_may_follow_the_block_lines():
    sf = ff.parse("name fam\nblock K1 K1.poset\nblock K2 K2.poset\nfamily\n")
    assert sf.is_family and sf.blocks == [("K1", "K1.poset"), ("K2", "K2.poset")]


def test_cli_names_a_line_the_family_file_would_drop(tmp_path, capsys):
    for name in ("K1.poset", "K2.poset"):
        (tmp_path / name).write_text((FIXTURES / "chain" / name).read_text())
    path = tmp_path / "family.poset"
    path.write_text((FIXTURES / "chain" / "family.poset").read_text() + "inv 0 1\n")
    assert cli.main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: {path}: line ")
    assert line.endswith(": inv line in a family file")


def test_cycle_is_semantic_error():
    text = ("elements 0 a b 1\ncover 0 a\ncover a b\ncover b a\ncover b 1\n")
    with pytest.raises(PosetError):
        ff.build(ff.parse(text))


def test_missing_involute_is_semantic_error():
    text = "elements 0 a b 1\ncover 0 a\ncover 0 b\ncover a 1\ncover b 1\ninv a b\n"
    built = ff.build(ff.parse(text))  # bounds pair implicitly
    assert built.inv[0] == 3
    bad = "elements 0 a b 1\ncover 0 a\ncover 0 b\ncover a 1\ncover b 1\ninv a a\n"
    with pytest.raises(PosetError):
        ff.build(ff.parse(bad))


B2 = "elements 0 a b 1\ncover 0 a\ncover 0 b\ncover a 1\ncover b 1\n"
CHAIN3 = "elements 0 a 1\ncover 0 a\ncover a 1\n"


@pytest.mark.parametrize("text, message", [
    (B2 + "inv 1 1\ninv a b\n", "no involute declared for 0"),
    (CHAIN3 + "inv 1 a\n", "no involute declared for 0"),
    (CHAIN3 + "inv 0 a\n", "no involute declared for 1"),
], ids=["square-top-fixed", "chain-top-to-middle", "chain-bottom-to-middle"])
def test_bounds_are_paired_only_when_neither_has_an_inv_line(tmp_path, capsys, text, message):
    # a declared involute of the top (or the bottom) is kept, so the other
    # bound has none; pairing them would overwrite the declared one
    path = tmp_path / "bounds.poset"
    path.write_text(text)
    with pytest.raises(PosetError, match=f"^{message}$"):
        ff.build(ff.parse(text))
    assert cli.main(["check", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


@pytest.mark.parametrize("kind, lines, message", [
    ("poset", "cover a z\n", "unknown element 'z'"),
    ("poset", "inv a z\n", "unknown element 'z'"),
    ("poset", "inv a b\nsection a z 1\n", "no element labelled 'z'"),
    ("poset", "inv a b\ninv a a\n", "conflicting involute for a"),
    # the covers are resolved before the inv lines, and both before the order
    ("poset", "inv a y\ncover a z\n", "unknown element 'z'"),
    ("poset", "cover 1 0\ninv a z\n", "unknown element 'z'"),
    ("poset", "cover 1 a\ninv a b\nsection a z 1\n", "cycle through element a"),
    ("poset", "inv a b\nsection a 1 a\nsection a 1 b\nsection z 1 1\n",
     "conflicting section image for 1 in [a,1]"),
    ("poset", "cover a\n", "line 6: cover takes two elements"),
    ("poset", "inv a b c\n", "line 6: inv takes two elements"),
    ("poset", "section a 1\n", "line 6: section takes base, element, image"),
    ("family", "identify K1:zz K2:p\n", "no element labelled 'zz'"),
    ("family", "identify K1:p K9:p\n", "unknown block 'K9' in identify"),
    ("family", "identify K1:p\n", "line 5: identify needs at least two entries"),
    ("family", "identify K1:p K2\n", "line 5: expected BLOCK:ELEMENT, got 'K2'"),
], ids=["cover-label", "inv-label", "section-label", "inv-conflict", "cover-before-inv",
        "label-before-cycle", "cycle-before-section", "section-conflict-first",
        "cover-arity", "inv-arity", "section-arity", "identify-label", "identify-block",
        "identify-one", "identify-entry"])
def test_load_errors_keep_their_text(tmp_path, capsys, kind, lines, message):
    if kind == "family":
        for name in ("K1.poset", "K2.poset"):
            (tmp_path / name).write_text((FIXTURES / "chain" / name).read_text())
        text = "name fam\nfamily\nblock K1 K1.poset\nblock K2 K2.poset\n" + lines
    else:
        text = B2 + lines
    path = tmp_path / "bad.poset"
    path.write_text(text)
    assert cli.main(["check", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("**/*.poset")),
                         ids=lambda p: str(p.relative_to(FIXTURES)))
def test_loading_builds_no_label_index_on_a_poset(path):
    # a file resolves its labels through one index of its own, and a
    # family resolves its identify labels on the block labels, so no
    # poset it builds makes the index its lookups by label would read
    obj = ff.load(str(path))
    posets = ([blk.poset for blk in obj.blocks] if isinstance(obj, am.PastedFamily)
              else [obj if isinstance(obj, FinitePoset) else obj.poset])
    assert all("_index" not in vars(p) for p in posets)


def test_inv_lines_must_agree_with_the_bottom_section_row(tmp_path, capsys):
    # fig7s's section lines on [0,1] swap a with a' and b with b'
    text = (FIXTURES / "fig7s.poset").read_text()
    assert ff.emit(ff.build(ff.parse(text + "inv a a'\ninv b b'\n"))) == text
    path = tmp_path / "conflict.poset"
    path.write_text(text + "inv a b\ninv b' a'\n")
    with pytest.raises(PosetError, match="conflicting involute for a$"):
        ff.build(ff.parse(path.read_text()))
    assert cli.main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {path}: conflicting involute for a\n")


def test_section_lines_must_agree_with_each_other(tmp_path, capsys):
    # fig7s's row 0 swaps a with a' and b with b'; the other antitone
    # involution of its poset swaps a with b' and b with a'
    text = (FIXTURES / "fig7s.poset").read_text()
    assert ff.emit(ff.build(ff.parse(text + "section 0 a a'\nsection 0 1 0\n"))) == text
    other = "section 0 a b'\nsection 0 b a'\nsection 0 b' a\nsection 0 a' b\n"
    path = tmp_path / "conflict.poset"
    path.write_text(text + other)
    with pytest.raises(PosetError, match=r"conflicting section image for a in \[0,1\]$"):
        ff.build(ff.parse(path.read_text()))
    assert cli.main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"error: {path}: conflicting section image for a in [0,1]\n")
    # the other family's own lines load, as that family
    rows = [line for line in text.splitlines() if not line.startswith("section 0 ")]
    s = ff.build(ff.parse("\n".join(rows) + "\n" + other))
    assert s.ortho.inv == (5, 3, 4, 1, 2, 0)


def test_two_chain_dot():
    from paraposet.poset import FinitePoset
    p = FinitePoset.from_covers(["0", "1"], [("0", "1")])
    dot = render.export_dot(p)
    assert dot.count("->") == 1
    assert dot.count("label=") == 2


def test_dot_labels_escape_backslash_and_quote():
    # the backslash is escaped first, so neither label closes its string early
    p = FinitePoset.from_covers(["a\\", 'b"'], [("a\\", 'b"')])
    dot = render.export_dot(p)
    assert '  n0 [label="a\\\\"];\n' in dot
    assert '  n1 [label="b\\""];\n' in dot


def test_benzene_dot():
    dot = render.export_dot(gallery.ortho("fig4"))
    assert dot.count("->") == 6
    assert dot.count("[label=") == 6
    assert "rankdir=BT" in dot
    assert dot == render.export_dot(gallery.ortho("fig4"))


def _render_table_reference(table):
    """The reference rendering: every cell formatted on its own."""
    p = table.poset
    cells = [[render.format_cell(p, table.cell(x, y)) for y in range(p.n)]
             for x in range(p.n)]
    widths = [max(len(p.labels[y]), max(len(cells[x][y]) for x in range(p.n)))
              for y in range(p.n)]
    head = max(len(l) for l in p.labels)
    out = [" " * head + " | " + "  ".join(
        p.labels[y].ljust(widths[y]) for y in range(p.n)).rstrip()]
    out.append("-" * head + "-+-" + "-" * (sum(widths) + 2 * (p.n - 1)))
    for x in range(p.n):
        out.append(p.labels[x].ljust(head) + " | " + "  ".join(
            cells[x][y].ljust(widths[y]) for y in range(p.n)).rstrip())
    return "\n".join(out) + "\n"


TABLE_OPS = {"i1": implication.impl_I, "i2": implication.impl_I2,
             "sasaki-impl": implication.sasaki_impl, "sasaki-prod": implication.sasaki_proj,
             "i3": relative.impl_I3, "i4": relative.impl_I4}


def _table(obj, op):
    """The table ``paraposet table --op OP`` renders for ``obj``."""
    if op in ("i3", "i4"):
        if not isinstance(obj, relative.SectionedPoset):
            obj = relative.sections_from_involution(cli._as_ortho(obj))
        return TABLE_OPS[op](obj)
    return TABLE_OPS[op](cli._as_ortho(obj))


def test_table_rendering_matches_the_per_cell_reference():
    rendered, uneven, set_valued = 0, 0, set()
    for path in all_fixture_files():
        for op in TABLE_OPS:
            try:
                table = _table(ff.load(str(path)), op)
            except PosetError:
                continue
            assert render.render_table(table) == _render_table_reference(table), (path, op)
            rendered += 1
            uneven += len({len(l) for l in table.poset.labels}) > 1
            if any(c & (c - 1) for row in table.cells for c in row):
                set_valued.add((path.relative_to(FIXTURES).as_posix(), op))
    assert rendered == uneven == 154
    assert set_valued == {("fig1a.poset", "i3"), ("fig2b.poset", "i1"),
                          ("fig2b.poset", "sasaki-impl"), ("fig2b.poset", "sasaki-prod"),
                          ("square/family.poset", "i1"), ("square/family.poset", "i3"),
                          ("square/family.poset", "sasaki-impl"),
                          ("square/family.poset", "sasaki-prod")}
    # a label wider than every cell of its column sets the column width
    p = FinitePoset.from_covers(["0", "wide-label", "1"],
                                [("0", "wide-label"), ("wide-label", "1")])
    table = implication.SetValuedTable(p, ((1, 1, 1), (1, 5, 1), (4, 1, 1)))
    assert render.render_table(table) == _render_table_reference(table)


def test_table_rendering_matches_layout():
    from paraposet.relative import impl_I3
    text = render.render_table(impl_I3(gallery.load("fig1a")))
    lines = text.splitlines()
    assert lines[0].split("|")[1].split() == ["0", "a", "b", "a'", "b'", "1"]
    row_a = next(l for l in lines if l.startswith("a "))
    assert "{a', b'}" in row_a
    row_top = lines[-1]
    assert row_top.split("|")[1].split() == ["0", "a", "b", "a'", "b'", "1"]


def test_cli_check_exit_codes(capsys):
    assert cli.main(["check", str(FIXTURES / "cube.poset")]) == 0
    capsys.readouterr()
    assert cli.main(["check", str(FIXTURES / "fig2a.poset")]) == 1
    out = capsys.readouterr().out
    assert "sharply-paraorthomodular: true" in out
    assert cli.main(["check", str(FIXTURES / "fig2a.poset"),
                     "--predicate", "lattice"]) == 0


def test_cli_check_witnesses(capsys):
    code = cli.main(["check", str(FIXTURES / "fig7.poset"),
                     "--predicate", "paraorthomodular"])
    out = capsys.readouterr().out
    assert code == 1
    assert "witness (a, b')" in out


def test_cli_table_i3(capsys):
    assert cli.main(["table", str(FIXTURES / "fig1a.poset"), "--op", "i3"]) == 0
    out = capsys.readouterr().out
    assert "{a', b'}" in out


def test_cli_table_needs_valid_op_domain(capsys):
    code = cli.main(["table", str(FIXTURES / "fig1a.poset"), "--op", "i1"])
    assert code == 2  # not an orthogonal poset
    capsys.readouterr()


def test_cli_table_i4_needs_join_semilattice(capsys):
    path = str(FIXTURES / "fig1a.poset")
    assert cli.main(["table", path, "--op", "i4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ")


def test_cli_amalgam_classify(capsys):
    code = cli.main(["amalgam", str(FIXTURES / "triangle" / "family.poset"),
                     "--classify"])
    out = capsys.readouterr().out
    assert code == 0
    assert "order-3=1" in out
    assert "missing join" in out


def test_cli_amalgam_loops(capsys):
    code = cli.main(["amalgam", str(FIXTURES / "square" / "family.poset"),
                     "--loops", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1 loop(s) of order 4" in out


def test_cli_amalgam_loops_below_three(capsys):
    code = cli.main(["amalgam", str(FIXTURES / "square" / "family.poset"),
                     "--loops", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "loops start at order 3" in captured.err


K3B2 = ("elements 0 e1 e2 e3 e4 1\n"
        "cover 0 e3\ncover 0 e4\ncover e3 e2\ncover e4 e1\ncover e4 e2\n"
        "cover e1 1\ncover e2 1\n"
        "inv 0 1\ninv e1 e3\ninv e2 e4\n")
KLEENE7 = ("elements 0 e1 e2 e3 e4 e5 1\n"
           "cover 0 e4\ncover 0 e5\ncover e4 e3\ncover e5 e3\ncover e3 e1\n"
           "cover e3 e2\ncover e1 1\ncover e2 1\n"
           "inv 0 1\ninv e1 e4\ninv e2 e5\ninv e3 e3\n")


def _three_block_family(tmp_path):
    # A:e3 (an atom) is glued to B:e1 (a coatom), so A u B alone is not
    # transitive; C supplies the missing comparabilities, so without the
    # atom-to-atom rule the whole carrier would build
    for name, body in (("A", K3B2), ("B", K3B2), ("C", KLEENE7)):
        (tmp_path / f"{name}.poset").write_text(f"name {name}\n{body}")
    family = tmp_path / "family.poset"
    family.write_text("name A-B-C\nfamily\n"
                      "block A A.poset\nblock B B.poset\nblock C C.poset\n"
                      "identify A:e3 B:e1\nidentify A:e1 B:e3\n"
                      "identify A:e2 C:e1\nidentify A:e4 C:e4\n"
                      "identify B:e2 C:e2\nidentify B:e4 C:e5\n")
    return family


@pytest.mark.parametrize("argv", [["amalgam"], ["amalgam", "--classify"], ["check"],
                                  ["export"]],
                         ids=["report", "classify", "check", "export"])
def test_cli_amalgam_reports_a_two_block_union_that_is_no_order(tmp_path, capsys, argv):
    # the family is rejected when the file loads, by every command alike
    family = _three_block_family(tmp_path)
    with pytest.raises(am.FamilyError):
        ff.load(str(family))
    assert cli.main([argv[0], str(family), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {family}: bad intersection of blocks A and B: "
                            "e1 (coatom of A) is glued to e3 (atom of B)\n")


@pytest.mark.parametrize("flags, message", [
    (["--classify", "--loops", "3"], "argument --loops: not allowed with argument --classify"),
    (["--loops", "3", "--classify"], "argument --classify: not allowed with argument --loops"),
], ids=["classify-first", "loops-first"])
def test_cli_amalgam_classify_and_loops_are_exclusive(capsys, flags, message):
    # one run either classifies or lists loops, never half of both
    with pytest.raises(SystemExit) as exc:
        cli.main(["amalgam", str(FIXTURES / "square" / "family.poset"), *flags])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"paraposet amalgam: error: {message}"


@pytest.mark.parametrize("command", ["check", "amalgam"])
@pytest.mark.parametrize("block", ["inner.poset", "family.poset"],
                         ids=["family-block", "self-block"])
def test_family_block_without_global_involution(tmp_path, capsys, command, block):
    # a block that is a family file, or the family file naming itself
    for name in ("K1.poset", "K2.poset", "family.poset"):
        text = (FIXTURES / "chain" / name).read_text()
        (tmp_path / ("inner.poset" if name == "family.poset" else name)).write_text(text)
    family = tmp_path / "family.poset"
    family.write_text(f"name outer\nfamily\nblock K1 K1.poset\nblock A {block}\n")
    assert cli.main([command, str(family)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {family}: block A must carry a global involution\n"


def _bad_input(kind, tmp_path, monkeypatch):
    """A FILE argument that no file command can build."""
    if kind == "missing":
        return tmp_path / "missing.poset"
    if kind == "malformed":
        path = tmp_path / "bad.poset"
        path.write_text("elements 0 1\nbogus 0 1\n")
        return path
    if kind == "not-utf8":
        path = tmp_path / "bad.poset"
        path.write_bytes(b"\xff\xfeelements 0 1\n")
        return path
    if kind == "block-not-utf8":
        (tmp_path / "K1.poset").write_text((FIXTURES / "chain" / "K1.poset").read_text())
        (tmp_path / "bad.poset").write_bytes(b"name bad\nelements 0 \xff 1\n")
        path = tmp_path / "family.poset"
        path.write_text("name outer\nfamily\nblock K1 K1.poset\nblock A bad.poset\n")
        return path
    if kind == "no-involution":
        for name in ("K1.poset", "K2.poset", "family.poset"):
            text = (FIXTURES / "chain" / name).read_text()
            (tmp_path / ("inner.poset" if name == "family.poset" else name)).write_text(text)
        path = tmp_path / "family.poset"
        path.write_text("name outer\nfamily\nblock K1 K1.poset\nblock A inner.poset\n")
        return path
    if kind == "atom-to-coatom":
        for name in ("A", "B"):
            (tmp_path / f"{name}.poset").write_text(f"name {name}\n{K3B2}")
        path = tmp_path / "family.poset"
        path.write_text("name A-B\nfamily\nblock A A.poset\nblock B B.poset\n"
                        "identify A:e3 B:e1\nidentify A:e1 B:e3\n")
        return path

    def no_order(fam):
        raise am.FamilyError("glued relation is not a bounded order")
    monkeypatch.setattr(am, "build_amalgam", no_order)
    return FIXTURES / "triangle" / "family.poset"


@pytest.mark.parametrize("argv", [
    ["check"], ["table", "--op", "i1"], ["amalgam"], ["amalgam", "--classify"],
    ["export"],
], ids=lambda argv: " ".join(argv))
@pytest.mark.parametrize("kind", ["missing", "malformed", "not-utf8", "block-not-utf8",
                                  "no-involution", "atom-to-coatom", "build-fails"])
def test_file_commands_exit_2_on_an_input_they_cannot_build(
        tmp_path, capsys, monkeypatch, kind, argv):
    path = _bad_input(kind, tmp_path, monkeypatch)
    assert cli.main([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: {path}: ")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimised"])
def test_check_on_a_family_that_does_not_paste_prints_no_traceback(tmp_path, flags):
    family = _three_block_family(tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, *flags, "-m", "paraposet.cli", "check",
                          str(family)], env=env, capture_output=True, text=True)
    assert (res.returncode, res.stdout) == (2, "")
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith(f"error: {family}: ")


def test_non_utf8_input_names_its_line(tmp_path):
    path = tmp_path / "bad.poset"
    path.write_bytes(b"name bad\nelements 0 \xff 1\n")
    with pytest.raises(ff.ParseError, match=r"^line 2: not UTF-8 text: .* at byte 20$"):
        ff.load(str(path))


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimised"])
@pytest.mark.parametrize("argv", [
    ["check"], ["table", "--op", "i1"], ["amalgam", "--classify"], ["export"],
], ids=lambda argv: " ".join(argv))
@pytest.mark.parametrize("kind", ["not-utf8", "block-not-utf8"])
def test_non_utf8_input_prints_no_traceback(tmp_path, monkeypatch, kind, argv, flags):
    path = _bad_input(kind, tmp_path, monkeypatch)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, *flags, "-m", "paraposet.cli", argv[0],
                          str(path), *argv[1:]], env=env, capture_output=True, text=True)
    assert (res.returncode, res.stdout) == (2, "")
    assert "Traceback" not in res.stderr
    [line] = res.stderr.splitlines()
    assert line.startswith(f"error: {path}: line ")


def test_verify_lets_a_theorem_fault_propagate(monkeypatch):
    # verify reads no file: a PosetError inside a theorem is a program
    # fault, not an input error with exit 2
    def boom(item):
        raise PosetError("theorem fault")
    monkeypatch.setitem(harness.THEOREMS, "th1",
                        dataclasses.replace(harness.THEOREMS["th1"], check=boom))
    with pytest.raises(PosetError, match="theorem fault"):
        cli.main(["verify", "--theorems", "th1", "--max-n", "4"])


@pytest.mark.parametrize("argv", [
    ["amalgam", "--classify"], ["amalgam"], ["check"], ["table", "--op", "i1"],
    ["export"],
], ids=lambda argv: " ".join(argv))
def test_pasting_theorem_failure_exits_3(capsys, monkeypatch, argv):
    family = str(FIXTURES / "triangle" / "family.poset")
    monkeypatch.setattr(am, "is_paraorthomodular", lambda o: False)
    assert cli.main([argv[0], family, *argv[1:]]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {family}: amalgam of Kleene blocks is not paraorthomodular\n")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimised"])
def test_pasting_theorem_failure_exits_3_in_a_fresh_interpreter(flags):
    # the check is a raise, not an assert, so -O keeps it
    family = str(FIXTURES / "triangle" / "family.poset")
    code = ("from paraposet import amalgam, cli\n"
            "amalgam.is_paraorthomodular = lambda o: False\n"
            f"raise SystemExit(cli.main(['amalgam', {family!r}, '--classify']))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                         capture_output=True, text=True)
    assert (res.returncode, res.stdout) == (3, "")
    assert res.stderr == (
        f"error: {family}: amalgam of Kleene blocks is not paraorthomodular\n")


def test_cli_verify_deterministic(capsys):
    argv = ["verify", "--theorems", "th1,duality,omui", "--max-n", "4"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "0 violations" in first


@pytest.mark.parametrize("argv, message", [
    (["--theorems", "th1,th1"], "error: theorem id 'th1' given twice\n"),
    (["--theorems", "duality,th1,duality"], "error: theorem id 'duality' given twice\n"),
    (["--theorems", ","], "error: --theorems names no theorem\n"),
    (["--theorems", ""], "error: --theorems names no theorem\n"),
    (["--max-n", "0"], "error: --max-n 0 checks nothing: structures start at n = 2\n"),
    (["--max-n", "1", "--theorems", "th1"],
     "error: --max-n 1 checks nothing: structures start at n = 2\n"),
    (["--theorems", "th1,nope"], "error: unknown theorem id 'nope'\n"),
])
def test_cli_verify_rejects_runs_that_check_nothing_or_count_twice(capsys, argv, message):
    assert cli.main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


def test_run_harness_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="'th1' given twice"):
        harness.run_harness(max_n=2, ids=["th1", "omui", "th1"])


def test_cli_verify_matches_golden_report(capsys):
    # the stored report pins every theorem's instance count at n <= 5
    [golden] = json.loads((ROOT / "perfbench" / "golden" / "verify-n5.json").read_text())
    assert golden["argv"] == ["verify", "--max-n", "5"]
    assert cli.main(golden["argv"]) == golden["exit"]
    assert capsys.readouterr().out == golden["stdout"]


def test_cli_verify_omidentity_matches_golden_report(capsys):
    # every lattice/involution pair at n <= 7
    [golden] = json.loads((ROOT / "perfbench" / "golden" / "omid-n7.json").read_text())
    assert golden["argv"] == ["verify", "--max-n", "7", "--theorems", "omidentity"]
    assert cli.main(golden["argv"]) == golden["exit"]
    assert capsys.readouterr().out == golden["stdout"]


def test_cli_verify_sweep_matches_golden_report(capsys):
    # every theorem on every structure at n <= 7
    [golden] = json.loads((ROOT / "perfbench" / "golden" / "sweep-n7.json").read_text())
    assert golden["argv"] == ["verify", "--max-n", "7"]
    assert cli.main(golden["argv"]) == golden["exit"]
    assert capsys.readouterr().out == golden["stdout"]


@pytest.mark.parametrize("part, full", [
    ("verify-omid-n9.txt", "verify-n9.txt"),
    ("verify-omid-n10.txt", "verify-n10.txt"),
    ("verify-sect-n10.txt", "verify-n10.txt"),
])
def test_single_theorem_reports_are_lines_of_the_full_report(part, full):
    # CI diffs only the full reports, so each committed single-theorem
    # report must be read off the full one for the same max-n
    *lines, total = (ROOT / "tests" / "data" / part).read_text().splitlines()
    *full_lines, full_total = (ROOT / "tests" / "data" / full).read_text().splitlines()
    assert total.split(", ")[-1] == full_total.split(", ")[-1]
    assert lines and set(lines) <= set(full_lines)


def test_cli_gallery_matches_golden(capsys, monkeypatch):
    # every check, table, amalgam and export command on every fixture,
    # the 198 implication table renderings among them
    gallery = json.loads((ROOT / "perfbench" / "golden" / "gallery.json").read_text())
    assert len(gallery) == 251
    monkeypatch.chdir(ROOT)
    differ = []
    for entry in gallery:
        code = cli.main(entry["argv"])
        out = capsys.readouterr().out
        if code != entry["exit"] or out != entry["stdout"]:
            differ.append(entry["argv"])
    assert differ == []


def test_cli_search(capsys):
    code = cli.main(["search", "--implies", "orthomodular,paraorthomodular",
                     "--max-n", "5"])
    out = capsys.readouterr().out
    assert code == 1 and "no counterexample" in out
    code = cli.main(["search", "--implies", "paraorthomodular,orthomodular",
                     "--max-n", "5"])
    out = capsys.readouterr().out
    assert code == 0 and "counterexample" in out


def test_cli_search_notes_skipped_structures(capsys):
    # regular is undefined on 2 ortho structures with n <= 8; the note
    # goes to stderr, and stdout and the exit code stay those of a clean
    # search
    code = cli.main(["search", "--implies", "regular,regular", "--max-n", "8"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "no counterexample: regular implies regular up to n=8\n"
    assert captured.err == ("note: skipped 2 structures on which regular or regular "
                            "is undefined\n")
    code = cli.main(["search", "--implies", "regular,regular", "--max-n", "7"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""


@pytest.mark.parametrize("argv, message", [
    (["check", "fixtures/triangle/family.poset", "--predicate", "bogus"],
     "error: unknown predicate 'bogus'\n"),
    # the names are checked before the file is read
    (["check", "missing.poset", "--predicate", "bogus"],
     "error: unknown predicate 'bogus'\n"),
    (["search", "--implies", "a"],
     "error: --implies takes two comma-separated predicates\n"),
    (["search", "--implies", "lattice,bogus"], "error: unknown predicate 'bogus'\n"),
    # a search that would check nothing is refused, as verify refuses one
    (["search", "--implies", "orthomodular,paraorthomodular", "--max-n", "1"],
     "error: --max-n 1 checks nothing: structures start at n = 2\n"),
    (["search", "--implies", "orthomodular,paraorthomodular", "--max-n", "-5"],
     "error: --max-n -5 checks nothing: structures start at n = 2\n"),
], ids=["check-file", "check-missing-file", "search-one-name", "search-bad-name",
        "search-max-n-1", "search-max-n-negative"])
def test_cli_rejects_bad_predicate_names(capsys, monkeypatch, argv, message):
    monkeypatch.chdir(ROOT)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


def test_cli_export_family(capsys):
    code = cli.main(["export", str(FIXTURES / "fig5" / "family.poset"), "--dot"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[label=") == 8


def test_cli_bad_file(capsys):
    assert cli.main(["check", str(FIXTURES / "does-not-exist.poset")]) == 2


# One parser serves every ``main`` call in a process; nothing a call
# parses or replaces may leak into the next.

def test_cli_parser_is_built_once():
    assert cli.make_parser() is cli.make_parser()


def test_cli_parser_reuse_keeps_calls_apart(capsys):
    path = str(FIXTURES / "cube.poset")
    assert cli.main(["check", path, "--predicate", "lattice"]) == 0
    assert capsys.readouterr().out == "lattice: true\n"
    assert cli.main(["check", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 12
    assert [line.split(":")[0] for line in lines] == sorted(PREDICATES)

    family = str(FIXTURES / "square" / "family.poset")
    assert cli.main(["amalgam", family, "--loops", "3"]) == 0
    assert capsys.readouterr().out.endswith("0 loop(s) of order 3\n")
    assert cli.main(["amalgam", family]) == 0
    out = capsys.readouterr().out
    assert out.startswith("elements: ")
    assert "predicted: " in out and "loop(s)" not in out


def test_cli_usage_error_leaves_the_next_call_alone(capsys):
    path = str(FIXTURES / "fig1a.poset")
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", path])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "paraposet table: error: the following arguments are required: --op")
    assert cli.main(["table", path, "--op", "i3"]) == 0
    assert "{a', b'}" in capsys.readouterr().out


def test_cli_runs_a_command_replaced_after_an_earlier_call(capsys, monkeypatch):
    path = str(FIXTURES / "cube.poset")
    assert cli.main(["export", path]) == 0
    assert capsys.readouterr().out.startswith("digraph {")
    seen = []
    monkeypatch.setattr(cli, "cmd_export", lambda args: seen.append(args.file) or 5)
    assert cli.main(["export", path]) == 5
    assert seen == [path]
    assert capsys.readouterr().out == ""


# ``main`` parses with the invoked command's own parser and builds the
# full parser only for what that parser cannot decide; every outcome
# must be the one of a parse by the full parser alone.

FIG2A = "fixtures/fig2a.poset"
SQUARE = "fixtures/square/family.poset"


@pytest.mark.parametrize("argv", [
    # top-level usage, help and unknown commands
    [], ["--help"], ["-h"], ["-h", "table"], ["bogus"], ["tab"],
    ["--", "table", FIG2A, "--op", "i1"],
    # a command's own help, also when more follows
    ["table", "-h"], ["verify", "--help"], ["verify", "-h", "extra"],
    ["table", FIG2A, "--op", "i1", "--he"],
    # errors a command's parser reports
    ["table", FIG2A], ["table", FIG2A, "--op", "bogus"], ["check"],
    ["amalgam", SQUARE, "--classify", "--loops", "3"], ["amalgam", SQUARE, "--loops", "x"],
    ["verify", "--theorems"], ["check", FIG2A, "--predicate"], ["table", FIG2A, "-"],
    ["table", "--", FIG2A, "--op", "i1"],
    # leftover arguments, which the full parser reports
    ["table", FIG2A, "--op", "i1", "extra"], ["table", "--bogus", FIG2A, "--op", "i1"],
    ["table", FIG2A, "--op", "i1", "--"], ["verify", "--max-n", "3", "extra"],
    ["table", FIG2A, "--op=i1", "-x"],
    # errors a command reports, and abbreviated and joined options
    ["table", "missing.poset", "--op", "i1"], ["verify", "--max-n", "-1"],
    ["verify", "--max", "3"], ["check", FIG2A, "--pred", "lattice"],
    ["search", "--implies", "lattice,orthomodular", "--max-n=3"],
    ["export", FIG2A, "--dot", "--dot"],
    # a valid run of every command
    ["check", FIG2A], ["table", FIG2A, "--op", "i1"], ["amalgam", SQUARE],
    ["amalgam", SQUARE, "--loops", "4"], ["verify", "--max-n", "4"],
    ["search", "--implies", "orthomodular,paraorthomodular", "--max-n", "5"],
    ["export", FIG2A],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_cli_outcomes_equal_those_of_the_full_parser(capsys, monkeypatch, argv):
    monkeypatch.chdir(ROOT)

    def outcome():
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    got = outcome()
    monkeypatch.setattr(cli, "_parse", lambda args: cli.make_parser().parse_args(args))
    assert got == outcome()


def test_cli_command_builds_no_full_parser(capsys):
    cli.make_parser.cache_clear()
    assert cli.main(["table", str(FIXTURES / "fig2a.poset"), "--op", "i1"]) == 0
    assert cli.make_parser.cache_info().currsize == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("---+")
    assert cli.command_parser("table") is cli.command_parser("table")
    assert cli.command_parser("table").prog == "paraposet table"


def test_cli_reads_sys_argv_without_an_argv(capsys, monkeypatch):
    path = str(FIXTURES / "fig2a.poset")
    assert cli.main(["table", path, "--op", "i1"]) == 0
    table = capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["paraposet", "table", path, "--op", "i1"])
    assert cli.main() == 0
    assert capsys.readouterr().out == table
    monkeypatch.setattr(sys, "argv", ["paraposet", "bogus"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "paraposet: error: argument command: invalid choice: 'bogus'")
