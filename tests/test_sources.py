"""Static checks over the package sources.

numpy is a declared dependency, so every module imports it plainly: a
guarded import would grow a second, untested code path for an
environment the package does not support.

A method ``X_run`` that takes a run of consecutive lines covers a single
line as a run of one, so no class keeps an ``X`` or ``X_line`` beside
it: such a twin is a second, lightly tested code path for the same
computation.
"""

import ast
import re
from pathlib import Path

import repro


def test_no_module_catches_import_error():
    package_dir = Path(repro.__file__).parent
    guarded = re.compile(r"except\b[^:\n]*\b(ImportError|ModuleNotFoundError)\b")
    offenders = []
    for source in sorted(package_dir.rglob("*.py")):
        for number, line in enumerate(source.read_text().splitlines(), 1):
            if guarded.search(line):
                offenders.append("%s:%d" % (
                    source.relative_to(package_dir), number))
    assert not offenders, "guarded imports: %s" % ", ".join(offenders)


def test_no_class_keeps_a_line_twin_beside_its_run_form():
    package_dir = Path(repro.__file__).parent
    twins = []
    for source in sorted(package_dir.rglob("*.py")):
        tree = ast.parse(source.read_text())
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {item.name for item in node.body
                       if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
            for name in sorted(methods):
                if not name.endswith("_run"):
                    continue
                stem = name[: -len("_run")]
                for twin in (stem, stem + "_line"):
                    if twin in methods:
                        twins.append("%s.%s beside %s (%s)" % (
                            node.name, twin, name, source.relative_to(package_dir)))
    assert not twins, "line twins of run forms: %s" % "; ".join(twins)
