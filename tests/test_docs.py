"""The README's references into the package: every `module.name` (or
`module.Class.attr`) that it gives for a `streampart` module names an
attribute that module has, so a rename or a deletion shows here."""

import importlib
import pkgutil
import re
from pathlib import Path

import streampart

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = [info.name for info in pkgutil.iter_modules(streampart.__path__)]
# a dotted name in backticks, on its own or written as a call
REFERENCE = re.compile(rf"`({'|'.join(MODULES)})((?:\.\w+)+)[`(]")


def test_readme_module_references_resolve():
    references = set(REFERENCE.findall(README.read_text(encoding="utf-8")))
    assert references  # the pattern still finds what the README names
    missing = []
    for module, path in sorted(references):
        target = importlib.import_module(f"streampart.{module}")
        for name in path[1:].split("."):
            if not hasattr(target, name):
                missing.append(module + path)
                break
            target = getattr(target, name)
    assert missing == []
