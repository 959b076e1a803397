import hietan


def test_star_import_resolves_all():
    namespace: dict = {}
    exec("from hietan import *", namespace)
    missing = [name for name in hietan.__all__ if name not in namespace]
    assert not missing
    assert len(set(hietan.__all__)) == len(hietan.__all__)
