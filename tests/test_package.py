"""The package's public surface: the names ``ontomatch.__all__`` promises."""

from __future__ import annotations

import ontomatch


def test_every_exported_name_resolves():
    missing = [name for name in ontomatch.__all__ if not hasattr(ontomatch, name)]
    assert missing == []


def test_export_list_has_no_duplicates():
    assert len(set(ontomatch.__all__)) == len(ontomatch.__all__)


def test_star_import_binds_exactly_the_export_list():
    namespace: dict = {}
    exec("from ontomatch import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(ontomatch.__all__)
