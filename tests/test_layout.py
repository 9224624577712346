"""Layout guards: the package holds only code that the package itself or the
scripts reach, and no check that python -O would strip.

A module-level function or class in src/eigenone that is referenced nowhere
in src/eigenone or scripts/, apart from inside its own definition, runs on no
command-line path.  It belongs in tests/oracles.py when tests check
production output against it, and is deleted otherwise.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "eigenone"
SCRIPTS = ROOT / "scripts"

# name -> why it stays in the package without a caller
UNREACHED_ALLOWED = {
    "fixed_space_dim_via_characters": "ROADMAP item 2 makes the character route "
    "the production fixed-space dimension",
}

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


def test_every_package_definition_is_referenced():
    # an allowed exception that gains a caller must leave the list as well
    unreached = unreferenced_definitions()
    assert sorted(entry.split(":")[1] for entry in unreached) == sorted(UNREACHED_ALLOWED), unreached


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
