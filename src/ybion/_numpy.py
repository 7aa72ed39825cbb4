"""numpy for the package's modules, executed on its first attribute access.

Every module takes numpy as ``from ._numpy import np`` and touches no numpy
attribute at import time, so a run that computes on Python floats alone
(``ybion --version``, ``crystal``, ``ionize-rate``, ``xsec``) never
executes numpy, and a run that computes loads it at its first array
operation.

If numpy is already imported, np is that module. Otherwise np is built
with importlib.util.LazyLoader (the lazy-import recipe of the importlib
documentation) and registered as sys.modules["numpy"], so a later
``import numpy`` anywhere gets the same module object. Within the package,
no module may write ``import numpy`` itself: on CPython 3.11 that statement
reads the registered module's __spec__ (importlib's _find_and_load checks
whether the module is still initializing), which executes numpy at once.

A missing numpy still fails at import, with a ModuleNotFoundError that
names numpy.
"""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        import numpy as np  # raises ModuleNotFoundError naming numpy
    else:
        _spec.loader = importlib.util.LazyLoader(_spec.loader)
        np = importlib.util.module_from_spec(_spec)
        sys.modules["numpy"] = np
        _spec.loader.exec_module(np)
