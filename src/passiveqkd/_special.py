"""``np`` and ``special``: numpy and ``scipy.special``, imported on first use.

Importing numpy costs more than the rest of the package does, and
``scipy.special`` several times more.  ``validate`` and ``list-scenarios``
call neither, nor does ``run`` of the APN and trusted rate modes, which are
closed forms in ``math``.  So the library reaches both modules only through
these accessors: the first lookup of a name imports the module, binds the
value on the accessor and returns it, and every later lookup is a plain
attribute hit.
"""

import importlib

__all__ = []


class _Lazy:
    def __init__(self, module):
        self._module = module

    def __getattr__(self, name):
        value = getattr(importlib.import_module(self._module), name)
        setattr(self, name, value)
        return value


np = _Lazy("numpy")
special = _Lazy("scipy.special")
