"""No unused API: every definition in src/orbitkit is used by src/orbitkit.

The scan parses each module with ``ast``.  A top-level function or class,
or a non-dunder method, counts as used when some module of the package
loads its name, as a ``Name`` or as an ``Attribute`` in Load context.  The
test is coarse: a name loaded anywhere counts for every definition of it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "orbitkit"

# definitions no src code uses, each with the reason it stays
ALLOWED = {
    "convolve": "the benchmark's harmonic.convolve span wraps it",
    "restriction_multiplicity":
        "the benchmark's oracle.restriction_multiplicity span wraps it",
    "quotient_to_finite":
        "the benchmark's padic.quotient_to_finite span wraps it",
    "in_p_lattice": "the benchmark's ratlin.busy span wraps it",
    "uniform_quotient": "the finite shadow of the uniform pro-p case, "
                        "kept for the census property tests to draw from",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def modules():
    return [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(SRC.glob("*.py"))]


def definitions(trees):
    """(module, qualified name, name) of each top-level function and class
    and each non-dunder method."""
    for module, tree in trees:
        for node in tree.body:
            if not isinstance(node, _DEFS):
                continue
            yield module, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, _DEFS) and not (
                            item.name.startswith("__")
                            and item.name.endswith("__")):
                        yield module, f"{node.name}.{item.name}", item.name


def loaded_names(trees):
    names = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                names.add(node.attr)
    return names


def test_every_definition_is_used_in_src():
    trees = modules()
    loaded = loaded_names(trees)
    unused = sorted(f"{module}.{qualified}"
                    for module, qualified, name in definitions(trees)
                    if name not in loaded and name not in ALLOWED)
    assert unused == []


def test_allowlist_names_unused_definitions_only():
    # an entry whose name gained a caller, or lost its definition, goes
    trees = modules()
    loaded = loaded_names(trees)
    defined = {name for _, _, name in definitions(trees)}
    assert sorted(set(ALLOWED) - (defined - loaded)) == []
