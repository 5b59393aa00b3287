"""The package's public names."""

import anisopriv


def test_all_names_exist_once():
    # a stale string in __all__ breaks only `from anisopriv import *`
    missing = [name for name in anisopriv.__all__ if not hasattr(anisopriv, name)]
    assert missing == []
    assert len(set(anisopriv.__all__)) == len(anisopriv.__all__)
