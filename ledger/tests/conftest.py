"""Self-tests of the benchmark harness: ``python -m pytest ledger/tests -q``.

They live outside the tier-1 ``testpaths`` on purpose — they test the
ledger, not the program.
"""

import os
import sys

LEDGER_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(LEDGER_DIR)
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)
