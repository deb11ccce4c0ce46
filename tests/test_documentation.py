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
