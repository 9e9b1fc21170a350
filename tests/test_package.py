import plunnecke_lab


def test_star_import_resolves_every_exported_name():
    namespace: dict = {}
    exec("from plunnecke_lab import *", namespace)
    assert sorted(set(plunnecke_lab.__all__)) == sorted(plunnecke_lab.__all__)
    assert set(plunnecke_lab.__all__) <= set(namespace)
