"""The package namespace: one export list per module, and no parameter
that every program caller leaves at its default."""

import ast
from pathlib import Path

import multiwell
from multiwell import crossings, polynomial, spectrum, wells

MODULES = (polynomial, wells, spectrum, crossings)


def test_package_exports_exactly_the_module_exports():
    assert multiwell.__all__ == ["__version__"] + [
        name for module in MODULES for name in module.__all__]
    assert len(set(multiwell.__all__)) == len(multiwell.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(multiwell, name) is getattr(module, name), name


ROOT = Path(__file__).resolve().parent.parent
# a defaulted parameter of a function, public or private, that no program
# caller sets, and why it stays a parameter
UNSET_ALLOWED = {
    ("tilted_well_minimum", "lam"): "the paper's lambda-scaling of a well",
}


def _defaulted(func: ast.FunctionDef) -> list[tuple[int | None, str]]:
    """(position, name) of each defaulted parameter of func, self and cls
    not counted; keyword-only ones have position None."""
    args = func.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    skip = 1 if positional[:1] in (["self"], ["cls"]) else 0
    first = len(positional) - len(args.defaults)
    return [(i - skip, positional[i]) for i in range(first, len(positional))] \
        + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
           if d is not None]


def _set_by_callers() -> set[tuple[str, int | str]]:
    """(callee name, position or keyword) of every argument passed by a
    call in src/, scripts/ or benchmarks/; a * or ** argument sets every
    position or keyword ("*"), and an imported alias is its original
    name."""
    found = set()
    for path in sorted(p for d in ("src", "scripts", "benchmarks")
                       for p in (ROOT / d).rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        alias = {a.asname: a.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)
                 for a in node.names if a.asname}
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else \
                getattr(func, "attr", None)
            name = alias.get(name, name)
            for i, arg in enumerate(call.args):
                found.add((name, "*" if isinstance(arg, ast.Starred) else i))
            found.update((name, kw.arg or "*") for kw in call.keywords)
    return found


def test_every_default_is_set_by_some_program_caller():
    # a parameter whose default every caller keeps is a constant, in a
    # private helper as in a public function
    set_by = _set_by_callers()
    unset = set()
    for path in sorted((ROOT / "src" / "multiwell").glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef):
                continue
            for position, name in _defaulted(func):
                if not {(func.name, position), (func.name, name),
                        (func.name, "*")} & set_by:
                    unset.add((func.name, name))
    assert unset == set(UNSET_ALLOWED)
