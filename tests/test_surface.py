"""No unused API: every definition in src/orbitkit is used by src/orbitkit,
every keyword-only parameter is passed by some src/orbitkit call, and every
``__slots__`` attribute and every module-level name is read by some
src/orbitkit code.

The scan parses each module with ``ast``.  A top-level function or class
counts as used when some module of the package loads its name, as a
``Name`` or as an ``Attribute`` in Load context; a non-dunder method only
as an ``Attribute``, since a method is reached through an object, so a
local variable of the same name does not count for it.  The test is
coarse: a name loaded anywhere counts for every definition of it, so the
method names that more than one class defines are listed, each definition
with a src call that reaches it (SHARED_METHODS).  A keyword-only
parameter counts as passed when some call by the function's name (the
class's, for ``__init__``) passes it by name.  A slot counts as read when
some module loads its name as an ``Attribute``, as coarse as the rest: a
field that only tests read is a second report nothing prints.  A name bound
at module level (a constant) counts as read when some module loads it, as
a ``Name`` or as an ``Attribute``.

Every name an annotation reads must also be bound in its module: under
``from __future__ import annotations`` no annotation is evaluated, so one
that names a deleted type would otherwise pass unnoticed.
"""

import ast
import builtins
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
}

# slots no src code reads, each with the reason it stays
UNREAD_SLOTS = {
    "oracle.CharTable.attempts":
        "the benchmark's oracle.eig_attempts counter reads it",
}

# module-level names no src code reads, each with the reason it stays
UNREAD_NAMES = {
    "orbitmethod._TABLE_LIMIT":
        "the benchmark's tests bound their rings' order by it",
}

# Method names defined by more than one class.  The scan cannot tell their
# definitions apart, so each is listed with a src call that reaches it:
# (module, the call's text).  A definition added or removed under one of
# these names, or a new shared name, fails the test until listed here.
SHARED_METHODS = {
    "basis": {
        "liering.FiniteLieRing.basis": ("oracle", "ring.basis(i)"),
        "padic.QpLieAlgebra.basis": ("padic", "algebra.basis(i)"),
    },
    "bracket": {
        "liering.FiniteLieRing.bracket": (
            "liering", "ring.bracket(self.basis_coords[i]"),
        "padic.QpLieAlgebra.bracket": ("padic", "algebra.bracket(g, col)"),
    },
    "scale": {
        "liering.FiniteLieRing.scale": ("orbitmethod", "ring.scale("),
        "padic.PLattice.scale": ("padic", "lat.scale(factor)"),
    },
    "zero": {
        "freelie.LiePoly.zero": ("chsolver", "LiePoly.zero(1)"),
        "liering.FiniteLieRing.zero": ("liering", "self.ring.zero()"),
    },
}

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = _FUNCS + (ast.ClassDef,)


def modules():
    return [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(SRC.glob("*.py"))]


def definitions(trees):
    """(module, qualified name, name, is a method) of each top-level
    function and class and each non-dunder method."""
    for module, tree in trees:
        for node in tree.body:
            if not isinstance(node, _DEFS):
                continue
            yield module, node.name, node.name, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, _DEFS) and not (
                            item.name.startswith("__")
                            and item.name.endswith("__")):
                        yield (module, f"{node.name}.{item.name}", item.name,
                               True)


def loaded_names(trees):
    """(names loaded as a ``Name``, names loaded as an ``Attribute``)."""
    names, attributes = set(), set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                attributes.add(node.attr)
    return names, attributes


def slot_attributes(trees):
    """(module.Class.attribute, attribute) of each name in the
    ``__slots__`` of a top-level class."""
    for module, tree in trees:
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.Assign) and any(
                        getattr(t, "id", None) == "__slots__"
                        for t in item.targets):
                    for name in ast.literal_eval(item.value):
                        yield f"{module}.{node.name}.{name}", name


def unread_slots(trees):
    _, attributes = loaded_names(trees)
    return sorted(qualified for qualified, name in slot_attributes(trees)
                  if name not in attributes)


def module_names(trees):
    """(module.name, name) of each name a module-level assignment binds."""
    for module, tree in trees:
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield f"{module}.{leaf.id}", leaf.id


def unread_module_names(trees):
    names, attributes = loaded_names(trees)
    return sorted(qualified for qualified, name in module_names(trees)
                  if name not in names and name not in attributes)


def unused_definitions(trees):
    """(module, qualified name, name) of each definition no src code loads."""
    names, attributes = loaded_names(trees)
    for module, qualified, name, method in definitions(trees):
        if name not in attributes and (method or name not in names):
            yield module, qualified, name


def keyword_only_parameters(trees):
    """(module, name a call reaches it by, parameter) of each keyword-only
    parameter of a top-level function or a method."""
    for module, tree in trees:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                funcs = [(item, node.name if item.name == "__init__"
                          else item.name) for item in node.body
                         if isinstance(item, _FUNCS)]
            elif isinstance(node, _FUNCS):
                funcs = [(node, node.name)]
            else:
                continue
            for func, callee in funcs:
                for arg in func.args.kwonlyargs:
                    yield module, callee, arg.arg


def keywords_passed(trees):
    """(called name, keyword) of each keyword argument of a src call; a
    call of ``cls`` in a class calls that class."""
    passed = set()
    for _, tree in trees:
        for top in tree.body:
            owner = top.name if isinstance(top, ast.ClassDef) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    called = getattr(node.func, "id",
                                     getattr(node.func, "attr", None))
                    if called == "cls":
                        called = owner
                    passed.update((called, kw.arg) for kw in node.keywords)
    return passed


def test_every_definition_is_used_in_src():
    unused = sorted(f"{module}.{qualified}"
                    for module, qualified, name in unused_definitions(modules())
                    if name not in ALLOWED)
    assert unused == []


def test_allowlist_names_unused_definitions_only():
    # an entry whose name gained a caller, or lost its definition, goes
    unused = {name for _, _, name in unused_definitions(modules())}
    assert sorted(set(ALLOWED) - unused) == []


def test_shared_method_names_list_a_reaching_call_per_definition():
    trees = modules()
    owners = {}
    for module, qualified, name, method in definitions(trees):
        if method:
            owners.setdefault(name, set()).add(f"{module}.{qualified}")
    shared = {name: found for name, found in owners.items() if len(found) > 1}
    assert shared == {name: set(calls)
                      for name, calls in SHARED_METHODS.items()}
    source = {path.stem: path.read_text(encoding="utf-8")
              for path in SRC.glob("*.py")}
    for calls in SHARED_METHODS.values():
        for module, text in calls.values():
            assert text in source[module], (module, text)


def test_every_keyword_only_parameter_is_passed_in_src():
    # a keyword only tests pass is a second path src never takes; the
    # definitions ALLOWED to go uncalled are exempt
    trees = modules()
    passed = keywords_passed(trees)
    unpassed = sorted(
        f"{module}.{callee}({name}=)"
        for module, callee, name in keyword_only_parameters(trees)
        if callee not in ALLOWED and (callee, name) not in passed)
    assert unpassed == []


def test_every_slot_is_read_in_src():
    # a stored field no src code reads costs its memory on every object
    assert [slot for slot in unread_slots(modules())
            if slot not in UNREAD_SLOTS] == []


def test_unread_slot_allowlist_is_current():
    # an entry whose slot gained a reader, or went, goes
    assert sorted(set(UNREAD_SLOTS) - set(unread_slots(modules()))) == []


def test_every_module_level_name_is_read_in_src():
    # a constant nothing reads, such as a tuning knob its code outlived,
    # only misleads the reader
    assert [name for name in unread_module_names(modules())
            if name not in UNREAD_NAMES] == []


def test_unread_name_allowlist_is_current():
    # an entry whose name gained a reader, or went, goes
    assert sorted(set(UNREAD_NAMES) - set(unread_module_names(modules()))) \
        == []


def bound_names(tree):
    """The names a module binds: its imports, wherever they are, and its
    top-level definitions and assignments."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
    for node in tree.body:
        if isinstance(node, _DEFS):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            bound.update(leaf.id for target in targets
                         for leaf in ast.walk(target)
                         if isinstance(leaf, ast.Name))
    return bound


def annotation_names(note):
    """The names an annotation reads, a string annotation (or a string
    inside one) parsed as the expression it holds."""
    for node in ast.walk(note):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from annotation_names(ast.parse(node.value, mode="eval"))


def annotations(tree):
    """Each parameter, return and variable annotation of a module."""
    for node in ast.walk(tree):
        if isinstance(node, _FUNCS):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      args.vararg, args.kwarg]
            notes = [arg.annotation for arg in params if arg is not None]
            notes.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        else:
            continue
        yield from (note for note in notes if note is not None)


def test_every_annotation_name_is_bound_in_its_module():
    known = set(dir(builtins))
    unbound = sorted(
        f"{module}:{note.lineno} {name}" for module, tree in modules()
        for note in annotations(tree)
        for name in annotation_names(note)
        if name not in known and name not in bound_names(tree))
    assert unbound == []
