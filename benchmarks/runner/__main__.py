"""``python -m benchmarks.runner`` (also runnable as a script path)."""

import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
# the store is used from its source tree; nothing needs installing
for _p in (os.path.join(_ROOT, "src"), _ROOT):
    if _p not in sys.path:
        sys.path.insert(0, _p)

if __name__ == "__main__":
    from benchmarks.runner.cli import main

    sys.exit(main())
