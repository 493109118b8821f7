"""The public surface is what the README documents."""

import inspect
import re
from pathlib import Path

import actol

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_every_public_function_is_in_readme():
    functions = [n for n in actol.__all__ if inspect.isfunction(getattr(actol, n))]
    missing = [n for n in functions if not re.search(rf"\b{n}\b", README)]
    assert functions and missing == []
