"""One cold set-up in a fresh interpreter: ``import benpde.cli`` plus
``load_config`` of each config path given; prints the seconds it took.

    python3 perfbench/setup_probe.py CONFIG [CONFIG ...]
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

start = time.perf_counter()
import benpde.cli as cli  # noqa: E402

for path in sys.argv[1:]:
    cli.load_config(path)
print(time.perf_counter() - start)
