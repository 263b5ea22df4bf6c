"""Design checks over ``src/fluxtube``, by AST.

The budget on the number of values a caller can set counts the defaulted
parameters of module-level public functions plus the defaulted fields of
public classes.  A new option has to replace an old one, or raise the
budget here with a reason.

No module imports an underscore-prefixed name from another fluxtube
module: what one module needs from another is public there, so each
decision has one home.
"""

import ast
import pathlib

import fluxtube

SETTABLE_VALUES_BUDGET = 22


def _settable_values(tree: ast.Module) -> int:
    count = 0
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            count += sum(isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                         for stmt in node.body)
    return count


PACKAGE = pathlib.Path(fluxtube.__file__).parent


def test_settable_values_stay_within_budget():
    total = sum(_settable_values(ast.parse(path.read_text()))
                for path in sorted(PACKAGE.glob("*.py")))
    assert total <= SETTABLE_VALUES_BUDGET


def _private_imports(tree: ast.Module) -> list[str]:
    """Underscore-prefixed names a module imports from fluxtube (dunders aside)."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "fluxtube":
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append(f"{'.' * node.level}{node.module or ''}.{name}")
    return found


def test_modules_import_no_private_names_from_each_other():
    found = {path.name: _private_imports(ast.parse(path.read_text()))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}
