"""Every public definition of the library is referenced by the library itself.

A function, class or method that only the tests call is code no run of the
command line reaches.  This check parses ``src/nelsonlab`` and keeps such
definitions from accumulating again.
"""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "nelsonlab"

# Checks of the model or its symbol calculus that only the tests run.  Each
# awaits promotion to a CLI row; a new row changes results.csv and the
# benchmark references, so the promotion waits for a change of the benchmark.
# Their helpers (poisson_bracket, _phase_derivative, dgamma_power,
# number_operator, operators.hermitian_func, fock.annihilate) are referenced
# from these checks.
AWAITING_PROMOTION = frozenset(
    {
        "fock.ac_estimate_report",
        "nelson.form_factor_split",
        "psido.functional_calculus_check",
        "psido.poisson_residual",
    }
)


def _definitions(tree):
    """(qualified name, node) of each public module-level function or class and public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def _referenced_name(node):
    """The name a node refers to: a bare name, an attribute, or an imported name."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def _unreferenced():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    references = defaultdict(list)  # name -> [(module, line)]
    for module, tree in trees.items():
        for node in ast.walk(tree):
            name = _referenced_name(node)
            if name is not None:
                references[name].append((module, getattr(node, "lineno", 0)))
    missing = set()
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            sites = references[qualname.rsplit(".", 1)[-1]]
            if not any(site != module or line not in own for site, line in sites):
                missing.add(f"{module}.{qualname}")
    return missing


def test_every_public_definition_is_referenced_in_the_library():
    missing = _unreferenced()
    assert missing - AWAITING_PROMOTION == set(), "referenced by nothing in src/ (delete, or call from a run)"
    assert AWAITING_PROMOTION - missing == set(), "referenced now: drop from AWAITING_PROMOTION"
