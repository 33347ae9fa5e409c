"""Regenerate ``expected.json``: the exact simulated makespan and message
count of every exchange_n128 and irregular_n32 op class.

Run from the repository root after a change that is meant to move
simulated times::

    python3 perfbench/make_expected.py

The benchmark counts an op as failed when its output differs from these
values, so regenerate only when the new outputs are known to be right.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import exchange  # noqa: E402
import irregular  # noqa: E402
from harness import EXPECTED_PATH  # noqa: E402

if __name__ == "__main__":
    doc = {
        exchange.NAME: exchange.reference(),
        irregular.NAME: irregular.reference(),
    }
    EXPECTED_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_PATH}")
