"""No dead helpers: every public function of the package is read in src/.

A public function is a module-level function or a method whose name has
no leading underscore. It is read when its name occurs, as a name or an
attribute, somewhere in src/paraposet outside its own definition; an
import does not count. Names are matched, not bindings, so two
functions with one name keep each other alive: the guard can miss a
dead helper but never flags a live one.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "paraposet"

# public functions with no reader in src/, each kept for its reason
ALLOWED = {
    "upper_cone": "the public cone API, next to lower_cone; tests read it",
    "lower_cone": "the public cone API, next to upper_cone; tests read it",
    "greechie_cycle": "documented in the README and pinned to the fixture families",
    "as_dict": "the machine-readable form of a harness result",
    "is_orthoisomorphic": "compares structures until one canonical key covers all of them",
    "omidentity_equiv": "the validating entry of the omidentity statement; the harness "
                        "validates each involution once per size and reads the "
                        "lattice's fit dict itself, and tests compare the two",
}


def _public_functions(tree):
    """The module-level functions and methods of ``tree`` with public names."""
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        for item in body:
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                yield item


def _names_read(node):
    """Every name and attribute name read under ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def dead_functions(src: pathlib.Path = SRC) -> set:
    """The public functions under ``src`` read nowhere outside their own body.

    ``cli.cmd_*`` are exempt: ``cli.main`` dispatches them by name.
    """
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))]
    reads = {}
    for tree in trees:
        for name in _names_read(tree):
            reads[name] = reads.get(name, 0) + 1
    dead = set()
    for tree in trees:
        for fn in _public_functions(tree):
            if fn.name.startswith("cmd_"):
                continue
            own = sum(1 for name in _names_read(fn) if name == fn.name)
            if reads.get(fn.name, 0) == own:
                dead.add(fn.name)
    return dead


def test_no_dead_public_functions():
    assert dead_functions() - ALLOWED.keys() == set()


def test_allowlist_names_only_dead_functions():
    # an entry whose function gained a reader, or is gone, must be dropped
    assert ALLOWED.keys() <= dead_functions()


def test_guard_sees_a_function_that_only_tests_read(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def unused():\n    return unused()\n\n\n"
        "class C:\n    def method(self):\n        return used()\n\n"
        "    def _private(self):\n        return 0\n")
    (tmp_path / "b.py").write_text("from .a import unused\n\n\n"
                                   "def cmd_run(args):\n    return C().method() + unused()\n")
    assert dead_functions(tmp_path) == set()
    (tmp_path / "b.py").write_text("from .a import unused\n")
    assert dead_functions(tmp_path) == {"unused", "method"}
