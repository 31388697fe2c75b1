"""Locate the gapsvt sources of the checkout the benchmark runs in.

The benchmark measures the code of the checkout it is started from, never an
installed copy: ``load_gapsvt`` puts ``<root>/src`` first on ``sys.path`` and
refuses to go on when the package is missing there or resolves elsewhere.
"""

from __future__ import annotations

import os
import sys


def load_gapsvt(root: str):
    src = os.path.abspath(os.path.join(root, "src"))
    if not os.path.isfile(os.path.join(src, "gapsvt", "__init__.py")):
        raise SystemExit(f"perfbench: no gapsvt package under {src}; run from the root of a gapsvt checkout")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    import gapsvt

    if not os.path.abspath(gapsvt.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: gapsvt was imported from {gapsvt.__file__}, not from {src}")
    return gapsvt
