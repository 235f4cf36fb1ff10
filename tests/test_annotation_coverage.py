"""Every def in the fully-annotated modules is typed.

``pyproject.toml`` holds a set of modules to ``disallow_untyped_defs``.
This scan applies mypy's rule to them without mypy: every argument and
the return of every def (nested ones included) carry an annotation, with
two exemptions - the first argument of a method that is not a
``staticmethod``, and the return of an ``__init__`` that annotates at
least one argument.
"""

import ast
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _strict_modules():
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    overrides = config["tool"]["mypy"]["overrides"]
    return [module for block in overrides if block.get("disallow_untyped_defs")
            for module in block["module"]]


def _files(pattern):
    """Source files a mypy module pattern (``pkg`` or ``pkg.*``) covers."""
    base = SRC.joinpath(*pattern.rstrip(".*").split("."))
    if pattern.endswith(".*"):
        return sorted(base.rglob("*.py"))
    module = base.with_suffix(".py")
    return [module] if module.is_file() else [base / "__init__.py"]


def _untyped(tree):
    """``(line, name)`` of every def that misses an annotation."""
    found = []

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                params += [a for a in (args.vararg, args.kwarg) if a is not None]
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                if in_class and not static and (args.posonlyargs + args.args):
                    params = params[1:]
                annotated = [p.annotation is not None for p in params]
                init_exempt = child.name == "__init__" and any(annotated)
                if not all(annotated) or (child.returns is None and not init_exempt):
                    found.append((child.lineno, child.name))
                visit(child, in_class=False)
            else:
                visit(child, in_class=isinstance(child, ast.ClassDef))

    visit(tree, in_class=False)
    return found


def test_strict_modules_have_no_untyped_defs():
    files = sorted({f for pattern in _strict_modules() for f in _files(pattern)})
    assert files and all(f.is_file() for f in files), files
    untyped = [f"{f.relative_to(ROOT)}:{line}: {name}"
               for f in files for line, name in _untyped(ast.parse(f.read_text()))]
    assert not untyped, "untyped defs in disallow_untyped_defs modules:\n" + "\n".join(untyped)
