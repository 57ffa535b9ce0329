"""Time the set-up of one workload in a fresh interpreter.

Usage: python3 bench/setup_probe.py WORKLOAD SPEC_JSON

Prints the seconds taken to import ``pinchext.cli`` (which pulls in
numpy, scipy and mpmath) and to build the workload's inputs
(``parse_config`` or the library objects).  Nothing is imported before
the clock starts except the standard library.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    name, spec_path = sys.argv[1:3]
    spec = json.loads(Path(spec_path).read_text(encoding="ascii"))
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    import pinchext.cli  # noqa: F401
    import workloads
    workloads.WORKLOADS[name].construct(spec)
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
