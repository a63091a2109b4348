import cutkit


def test_all_names_resolve_once():
    assert len(cutkit.__all__) == len(set(cutkit.__all__))
    missing = [name for name in cutkit.__all__ if not hasattr(cutkit, name)]
    assert missing == []
    namespace = {}
    exec("from cutkit import *", namespace)
    assert set(cutkit.__all__) <= set(namespace)
