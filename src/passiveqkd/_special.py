"""``scipy.special``, imported on the first call that needs one of its functions.

Importing ``scipy.special`` costs several times what the rest of the package
does, and ``validate``, ``list-scenarios`` and the APN and trusted rate
modes never call it.  So the library reaches it only through ``special``:
the first lookup of a name imports the module, binds the function on
``special`` and returns it, and every later lookup is a plain attribute hit.
"""

import importlib

__all__ = []


class _LazySpecial:
    def __getattr__(self, name):
        value = getattr(importlib.import_module("scipy.special"), name)
        setattr(self, name, value)
        return value


special = _LazySpecial()
