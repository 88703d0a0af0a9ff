"""``cupweb.__all__`` lists exactly the package's public names."""

from types import ModuleType

import cupweb


def test_all_lists_every_public_name_once():
    public = [name for name, value in vars(cupweb).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)]
    assert sorted(cupweb.__all__) == sorted(public)
