import ssnmf


def test_every_exported_name_resolves():
    missing = [name for name in ssnmf.__all__ if not hasattr(ssnmf, name)]
    assert missing == []
    assert len(set(ssnmf.__all__)) == len(ssnmf.__all__)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from ssnmf import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(ssnmf.__all__)
