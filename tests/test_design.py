"""Design budget on the number of values a caller can set.

Counted by AST over ``src/fluxtube``: the defaulted parameters of
module-level public functions plus the defaulted fields of public classes.
A new option has to replace an old one, or raise the budget here with a
reason.
"""

import ast
import pathlib

import fluxtube

SETTABLE_VALUES_BUDGET = 24


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


def test_settable_values_stay_within_budget():
    package = pathlib.Path(fluxtube.__file__).parent
    total = sum(_settable_values(ast.parse(path.read_text()))
                for path in sorted(package.glob("*.py")))
    assert total <= SETTABLE_VALUES_BUDGET
