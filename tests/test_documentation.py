"""Documentation coverage: every public item carries a docstring.

The reproduction is also a reference for how SmartDIMM works; undocumented
public API defeats that purpose, so this meta-test walks the package and
enforces module, class, and public-callable docstrings.  EXPERIMENTS.md
must cite only test files that exist.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent


def _walk_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue
        yield importlib.import_module(info.name)


MODULES = list(_walk_modules())


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_docstrings(module):
    assert module.__doc__ and module.__doc__.strip(), module.__name__


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_class_and_function_docstrings(module):
    undocumented = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-export
        if inspect.isclass(obj):
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append("%s.%s" % (module.__name__, name))
            for member_name, member in vars(obj).items():
                if member_name.startswith("_") or not inspect.isfunction(member):
                    continue
                if not (member.__doc__ and member.__doc__.strip()):
                    undocumented.append(
                        "%s.%s.%s" % (module.__name__, name, member_name)
                    )
        elif inspect.isfunction(obj):
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append("%s.%s" % (module.__name__, name))
    assert not undocumented, "undocumented public items: %s" % undocumented


def test_experiments_cites_existing_tests():
    cited = set(re.findall(r"tests/[\w/]+\.py",
                           (ROOT / "EXPERIMENTS.md").read_text()))
    assert cited
    missing = sorted(path for path in cited if not (ROOT / path).is_file())
    assert not missing, "EXPERIMENTS.md cites missing tests: %s" % missing


def _inventory_files():
    """(package, file) for every ``*.py`` named in DESIGN.md's "System
    inventory" under a ``repro.<package>`` entry or heading."""
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("## System inventory", 1)[1].split("\n## ", 1)[0]
    package = None
    listed = []
    for line in section.splitlines():
        if line.startswith("#"):
            found = re.search(r"`repro\.(\w+)`", line)
            package = found.group(1) if found else None
            continue
        found = re.match(r"\d+\. \*\*`repro\.(\w+)`\*\*", line)
        if found:
            package = found.group(1)
        if package:
            listed += [(package, name) for name in re.findall(r"`([\w/]+\.py)`", line)]
    return listed


def test_design_inventory_lists_existing_modules():
    listed = _inventory_files()
    assert len(listed) > 40
    missing = sorted(
        "repro.%s: %s" % (package, name) for package, name in listed
        if not (ROOT / (name if name.startswith("tests/")
                        else "src/repro/%s/%s" % (package, name))).is_file())
    assert not missing, "DESIGN.md's inventory lists missing files: %s" % missing
