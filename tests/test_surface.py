"""The public surface is what the README documents."""

import ast
import inspect
import re
from pathlib import Path

import actol

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_every_public_function_is_in_readme():
    functions = [n for n in actol.__all__ if inspect.isfunction(getattr(actol, n))]
    missing = [n for n in functions if not re.search(rf"\b{n}\b", README)]
    assert functions and missing == []


def test_no_linalg_norm_in_the_package():
    """Norms go through clip.normalize, clip._norms or clip._dots, one
    helper per rounding; no module calls np.linalg.norm."""
    package = Path(actol.__file__).resolve().parent
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "norm"
        and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
    ]
    assert calls == []
