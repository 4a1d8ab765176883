"""Make child Python processes started by the tests import this checkout.

pytest's `pythonpath` setting reaches only the test process itself, so the
checkout's `src` is put first on PYTHONPATH for any subprocess as well.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p and p != _SRC])
