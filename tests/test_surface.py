"""The public surface is what the README documents."""

import ast
import inspect
import io
import re
import tokenize
from dataclasses import fields
from pathlib import Path

import actol
from actol.losses import Contrast, TnceConfig, Views
from actol.trainer import TrainHistory

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_every_public_function_is_in_readme():
    """Every public function is named in the README, and the library
    section's entry-point table has one row per public callable."""
    functions = [n for n in actol.__all__ if inspect.isfunction(getattr(actol, n))]
    missing = [n for n in functions if not re.search(rf"\b{n}\b", README)]
    assert functions and missing == []
    library = README.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("`")[1] for line in library.splitlines() if line.startswith("| `")]
    callables = [n for n in actol.__all__ if callable(getattr(actol, n))]
    assert sorted(rows) == sorted(callables)


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


def test_value_kinds_are_tested_only_in_kinds():
    """Whether a value is an integer, a real or a boolean is decided in
    actol.kinds alone: no other module imports numbers, names
    numbers.Integral or numbers.Real, or calls isinstance(..., bool)."""
    package = Path(actol.__file__).resolve().parent

    def kind_tests(path):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [a.name for a in node.names] + [getattr(node, "module", None)]
                if "numbers" in modules:
                    yield f"{path.name}:{node.lineno}"
            elif isinstance(node, ast.Attribute) and node.attr in ("Integral", "Real"):
                yield f"{path.name}:{node.lineno}"
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "isinstance" and len(node.args) == 2
                  and "bool" in [n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)]):
                yield f"{path.name}:{node.lineno}"

    found = {path.name: list(kind_tests(path)) for path in sorted(package.glob("*.py"))}
    assert found.pop("kinds.py")  # the scan sees them where they are
    assert [line for lines in found.values() for line in lines] == []


def _doc_texts():
    """(names actol defines, [(where, text)] of README.md and of every
    docstring and comment of actol). A name is defined as a function, a
    class, an assigned name or attribute, or a parameter."""
    package = Path(actol.__file__).resolve().parent
    defined, texts = set(), [("README.md", README)]
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
                defined.add(node.id if isinstance(node, ast.Name) else node.attr)
            elif isinstance(node, ast.arg):
                defined.add(node.arg)
            if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef)):
                where = f"{path.name}:{getattr(node, 'lineno', 1)}"
                texts.append((where, ast.get_docstring(node) or ""))
        texts += [(f"{path.name}:{token.start[0]}", token.string)
                  for token in tokenize.generate_tokens(io.StringIO(source).readline)
                  if token.type == tokenize.COMMENT]
    return defined, texts


def test_docs_name_only_private_helpers_that_exist():
    """Every underscore-private identifier written in README.md, or in a
    docstring or comment of actol, is defined in actol. A
    `<placeholder>_` in a file-name template, such as
    reward_<objective>_seed<n>.csv, is not an identifier."""
    defined, texts = _doc_texts()
    private = re.compile(r"(?<![\w>])_[A-Za-z]\w*")
    named = [(where, name) for where, text in texts for name in private.findall(text)]
    assert "_sorted_softmax" in {name for _, name in named}  # the scan sees the names it checks
    assert [(where, name) for where, name in named if name not in defined] == []


def _named(owners: str) -> list:
    """[(where, name)] of every <owner>.<name> written in README.md, or in a
    docstring or comment of actol, for the owners of a regex alternation."""
    return [(where, name) for where, text in _doc_texts()[1]
            for name in re.findall(rf"(?<!\w)(?:{owners})\.(\w+)", text)]


def test_docs_name_only_contrast_attributes_that_exist():
    """Every c.<name> or Contrast.<name> written in README.md, or in a
    docstring or comment of actol, is a field, method or attribute of
    Contrast, so that no removed field is still described."""
    attributes = set(dir(Contrast)) | {f.name for f in fields(Contrast)}
    named = _named(r"c|Contrast")
    assert {"of", "s_at"} <= {name for _, name in named}  # the scan sees the names it checks
    assert [(where, name) for where, name in named if name not in attributes] == []


def test_docs_name_only_views_attributes_that_exist():
    """Every Views.<name> or step.views.<name> written in README.md, or in a
    docstring or comment of actol, is an attribute of Views, so that no
    removed part of a step's state is still described."""
    attributes = set(dir(Views)) | set(vars(Views(Contrast.of((0, 1, 2), TnceConfig()), 1)))
    named = _named(r"Views|step\.views")
    assert {"at", "signed_tau"} <= {name for _, name in named}  # the scan sees the names it checks
    assert [(where, name) for where, name in named if name not in attributes] == []


def test_docs_name_only_history_attributes_that_exist():
    """Every TrainHistory.<name> or history.<name> written in README.md, or
    in a docstring or comment of actol, is an attribute of TrainHistory, so
    that no removed part of a run's result is still described. The CLI's
    history.csv is a file, not an attribute."""
    attributes = set(dir(TrainHistory)) | {f.name for f in fields(TrainHistory)}
    named = [(where, name) for where, name in _named(r"TrainHistory|history") if name != "csv"]
    assert {"losses", "records"} <= {name for _, name in named}  # the scan sees the names it checks
    assert [(where, name) for where, name in named if name not in attributes] == []
