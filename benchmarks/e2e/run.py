"""Entry point the driver runs:

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Builds nothing; puts the checkout's root and ``src/`` on ``sys.path`` and
hands over to :mod:`benchmarks.e2e.runner`.  Exits non-zero without a
result when the program under test is not there.  On every way out it stops
the processes the run started and waits for each (``stop_descendants``).
"""

import atexit
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"benchmarks/e2e: no program to measure under {ROOT / 'src'}")
    # replace the script directory: its trace.py must not shadow the stdlib's
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    sys.dont_write_bytecode = True
    from benchmarks.e2e.measure import stop_descendants

    # registered before the program is imported, so that it runs after the
    # program's own exit handlers (pool workers leave by os._exit, past it)
    atexit.register(stop_descendants)
    from benchmarks.e2e.runner import main

    sys.exit(main())
