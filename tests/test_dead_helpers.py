"""No dead helpers: every public function and class member is read in src/.

A public function is a module-level function whose name has no leading
underscore. It is read when its name occurs, as a name or an attribute,
somewhere in src/paraposet outside its own definition; an import does
not count.

A public member is a method, property or annotated (dataclass) field of
a module-level class, with no leading underscore. It is read when its
name is loaded as an attribute (``obj.name``) somewhere in src/paraposet
outside its own definition: a local variable or a keyword argument of
the same name does not count, and neither does setting the attribute.
A member read only through ``getattr`` or the dataclass machinery
would be flagged, and is allowed below with its reason.

Names are matched, not bindings, so two helpers with one name keep
each other alive: the guard can miss a dead helper but never flags one
that src/ reads.
"""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "paraposet"

# public functions and members with no reader in src/, each kept for its reason
ALLOWED = {
    "FinitePoset.upper_cone": "the public cone API, next to lower_cone; tests read it",
    "FinitePoset.lower_cone": "the public cone API, next to upper_cone; tests read it",
    "greechie_cycle": "documented in the README and pinned to the fixture families",
    "HarnessResult.as_dict": "the machine-readable form of a harness result",
    "HarnessResult.seconds": "each theorem's own check time, for the planned "
                             "machine-readable report (ROADMAP item 9)",
    "Theorem.id": "the key of each registered theorem; tests read it",
    "Theorem.description": "documents each theorem",
    "is_orthoisomorphic": "compares structures until one canonical key covers all of them",
    "omidentity_equiv": "the validating entry of the omidentity statement; the harness "
                        "validates each involution once per size and reads the "
                        "lattice's fit dict itself, and tests compare the two",
}


def _public_functions(tree):
    """The module-level functions of ``tree`` with public names."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node


def _public_members(tree):
    """``(class, name, node)`` for each public method, property and
    annotated field of the module-level classes of ``tree``."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for item in cls.body:
            if isinstance(item, ast.FunctionDef):
                name = item.name
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                name = item.target.id
            else:
                continue
            if not name.startswith("_"):
                yield cls.name, name, item


def _names_read(node):
    """Every name and attribute name read under ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _attributes_loaded(node):
    """Every attribute name loaded under ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr


def dead_functions(src: pathlib.Path = SRC) -> set:
    """The public functions and members under ``src`` read nowhere
    outside their own definition; a member is named ``Class.name``.

    ``cli.cmd_*`` are exempt: ``cli.main`` dispatches them by name.
    """
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))]
    reads = Counter(name for tree in trees for name in _names_read(tree))
    loads = Counter(name for tree in trees for name in _attributes_loaded(tree))
    dead = set()
    for tree in trees:
        for fn in _public_functions(tree):
            if fn.name.startswith("cmd_"):
                continue
            own = sum(1 for name in _names_read(fn) if name == fn.name)
            if reads[fn.name] == own:
                dead.add(fn.name)
        for cls, name, node in _public_members(tree):
            own = sum(1 for attr in _attributes_loaded(node) if attr == name)
            if loads[name] == own:
                dead.add(f"{cls}.{name}")
    return dead


def test_no_dead_public_functions():
    assert dead_functions() - ALLOWED.keys() == set()


def test_allowlist_names_only_dead_functions():
    # an entry whose function gained a reader, or is gone, must be dropped
    assert ALLOWED.keys() <= dead_functions()


def test_guard_sees_a_function_that_only_tests_read(tmp_path):
    (tmp_path / "a.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "def used():\n    return 1\n\n\n"
        "def unused():\n    return unused()\n\n\n"
        "@dataclass\nclass C:\n    field: int = 0\n\n"
        "    def method(self):\n        return used()\n\n"
        "    def shadowed(self):\n        return self.shadowed()\n\n"
        "    def _private(self):\n        return 0\n")
    (tmp_path / "b.py").write_text("from .a import unused\n\n\n"
                                   "def cmd_run(args):\n"
                                   "    c = C()\n"
                                   "    return c.method() + c.shadowed() + c.field + unused()\n")
    assert dead_functions(tmp_path) == set()
    # a local and a keyword named like a member do not read it
    (tmp_path / "b.py").write_text("from .a import C, unused\n\n\n"
                                   "def cmd_run(args):\n"
                                   "    shadowed = C(field=1)\n"
                                   "    return shadowed\n")
    assert dead_functions(tmp_path) == {"unused", "C.method", "C.shadowed", "C.field"}
