"""One exception class per CLI exit code, and no other class raised."""

import ast
import inspect
from pathlib import Path

import dudekit
from dudekit import errors

SOURCES = sorted(Path(dudekit.__file__).parent.glob("*.py"))


def test_errors_defines_one_class_per_exit_code():
    defined = {name for name, obj in vars(errors).items() if inspect.isclass(obj)}
    assert defined == {"DenoiserError", "DataError", "NumericalError"}
    assert issubclass(errors.DataError, errors.DenoiserError)
    assert issubclass(errors.NumericalError, errors.DenoiserError)


def test_every_raise_names_an_exit_code_family():
    allowed = {"DataError", "NumericalError"}
    bad = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if exc is None:  # not a raise, or a bare re-raise
                continue
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
                if name in allowed or (path.name == "cli.py" and name == "_UsageError"):
                    continue
            # _run_parts raises a forked part's exception again in the parent, as its own type
            if (path.name, ast.unparse(exc)) == ("evaluation.py", "results[-1]"):
                continue
            bad.append(f"{path.name}:{node.lineno}: raise {ast.unparse(exc)}")
    assert bad == []
