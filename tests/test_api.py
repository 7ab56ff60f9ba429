import fairtime


def test_public_names_resolve_without_duplicates():
    assert len(set(fairtime.__all__)) == len(fairtime.__all__)
    namespace: dict = {}
    exec("from fairtime import *", namespace)
    assert [name for name in fairtime.__all__ if name not in namespace] == []
