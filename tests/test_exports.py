"""The package's export list names only what exists: a deleted function
must leave `grammate.__all__` with it."""

import grammate


def test_every_export_resolves():
    missing = [name for name in grammate.__all__ if not hasattr(grammate, name)]
    assert missing == []
    assert len(set(grammate.__all__)) == len(grammate.__all__)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from grammate import *", namespace)
    assert set(grammate.__all__) <= set(namespace)
