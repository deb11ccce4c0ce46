"""Static checks over the package sources.

numpy is a declared dependency, so every module imports it plainly: a
guarded import would grow a second, untested code path for an
environment the package does not support.
"""

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
