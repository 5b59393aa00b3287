"""The package's public names."""

import types

import anisopriv


def test_all_names_exist_once():
    # a stale string in __all__ breaks only `from anisopriv import *`
    missing = [name for name in anisopriv.__all__ if not hasattr(anisopriv, name)]
    assert missing == []
    assert len(set(anisopriv.__all__)) == len(anisopriv.__all__)


def test_every_public_name_is_exported():
    # a name the package imports but does not list is left behind by a deletion
    # from __all__, or missing from `from anisopriv import *`
    public = {name for name, value in vars(anisopriv).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public - set(anisopriv.__all__)) == []
