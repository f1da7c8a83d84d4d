"""Time one workload's set-up in a fresh interpreter and print the seconds.

Set-up is importing ``bd4`` and what the workload loads from it.  The
time is in reference seconds (see ``refclock.py``), with the host's
speed calibrated just before and just after the import.  The benchmark
runs this several times per run and reports the median:

    python3 bench/setup_probe.py prop-prove|fo-entails|report
"""

import sys
import time
from pathlib import Path

from refclock import calibrate, speed_factor

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    workload = sys.argv[1]
    sys.path.insert(0, str(SRC))
    before = [calibrate() for _ in range(5)]
    t0 = time.perf_counter()
    if workload == "prop-prove":
        import bd4.kernel  # noqa: F401
        import bd4.parser  # noqa: F401
        import bd4.proofio  # noqa: F401
        import bd4.search  # noqa: F401
        from bd4.syntax import prop_signature
        prop_signature("p", "q", "r", "s", "u")
    elif workload == "fo-entails":
        import bd4.parser  # noqa: F401
        import bd4.proofio  # noqa: F401
        import bd4.semantics  # noqa: F401
        from bd4.syntax import Signature
        Signature(functions=(("c", 0), ("d", 0)),
                  predicates=(("P", 1), ("Q", 1), ("q", 0)))
    elif workload == "report":
        import bd4.acceptance  # noqa: F401
    else:
        print("unknown workload %r" % workload, file=sys.stderr)
        return 2
    seconds = time.perf_counter() - t0
    after = [calibrate() for _ in range(5)]
    print(seconds * speed_factor(before + after))
    return 0


if __name__ == "__main__":
    sys.exit(main())
