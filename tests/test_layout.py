"""Layout guards: the package holds only code that the package itself or the
scripts reach, and no check that python -O would strip.

A module-level function or class in src/eigenone that is referenced nowhere
in src/eigenone or scripts/, apart from inside its own definition, runs on no
command-line path; so does a method whose name no attribute there reads
outside its own body (dunders, which Python calls, are exempt).  Such code
belongs in tests/oracles.py when tests check production output against it,
and is deleted otherwise.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "eigenone"
SCRIPTS = ROOT / "scripts"

# name -> why it stays in the package without a caller
UNREACHED_ALLOWED = {
    "fixed_space_dim_via_characters": "ROADMAP item 12 gives the character route "
    "its production caller",
}
# Class.method -> why it stays in the package without a caller
UNREAD_METHODS_ALLOWED = {}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unreferenced_definitions() -> list[str]:
    defined = []  # (module file, name)
    referenced = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted(SCRIPTS.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            own = top.name if isinstance(top, DEFINITIONS) else None
            if own is not None and path.parent == PACKAGE:
                defined.append((path.name, own))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:  # recursion is not a caller
                    referenced.add(name)
    return [f"{module}:{name}" for module, name in defined if name not in referenced]


def unreferenced_methods() -> list[str]:
    methods = []  # (module file, "Class.method", method)
    read = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted(SCRIPTS.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = {}  # each node within a method -> the innermost method's name
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for f in cls.body:
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if path.parent == PACKAGE and not f.name.startswith("__"):
                        methods.append((path.name, f"{cls.name}.{f.name}", f.name))
                    inside.update((node, f.name) for node in ast.walk(f))
        # recursion is not a caller
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and inside.get(node) != node.attr)
    return [f"{module}:{qualified}" for module, qualified, name in methods if name not in read]


def test_every_package_definition_is_referenced():
    # an allowed exception that gains a caller must leave the list as well
    unreached = unreferenced_definitions()
    assert sorted(entry.split(":")[1] for entry in unreached) == sorted(UNREACHED_ALLOWED), unreached


def test_every_package_method_is_referenced():
    unread = unreferenced_methods()
    assert sorted(entry.split(":")[1] for entry in unread) == sorted(UNREAD_METHODS_ALLOWED), unread


def test_no_assert_statements():
    # python -O strips assert statements, so a check written as one stops
    # running; checks raise eigenone.errors.VerificationError instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
