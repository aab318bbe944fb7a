"""The package's public names: `__init__.py` builds `__all__` from its
import block, so check that every name in it resolves once and that no
imported public name is left out."""

from collections import Counter
from types import ModuleType

import streampart


def test_all_names_resolve_once():
    repeated = [name for name, count in Counter(streampart.__all__).items() if count > 1]
    assert not repeated
    missing = [name for name in streampart.__all__ if not hasattr(streampart, name)]
    assert not missing


def test_every_imported_name_is_in_all():
    imported = {name for name, value in vars(streampart).items()
                if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert imported - set(streampart.__all__) == set()
