"""Set-up time of dehn in a fresh interpreter.

Usage: python3 probe.py <src directory>. Prints a JSON object: the wall
seconds from before `import dehn` to the first verified trefoil result, and
durations of the speed reference loop taken just before and just after.
Exits 1 if the trefoil fails verification.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import families  # noqa: E402
import speed  # noqa: E402
import verify  # noqa: E402

REFERENCE_SAMPLES = 7  # on each side of the timed interval


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    pd = families.to_text(families.CORPUS["3_1"])
    samples = [speed.reference() for _ in range(REFERENCE_SAMPLES)]
    t0 = time.perf_counter()
    import dehn.pipeline
    result = dehn.pipeline.compute_result(pd)
    errors = verify.compute_result_errors(result, pd, 3, families.ALEXANDER["3_1"])
    elapsed = time.perf_counter() - t0
    samples += [speed.reference() for _ in range(REFERENCE_SAMPLES)]
    if errors:
        print(f"trefoil failed verification: {errors}", file=sys.stderr)
        return 1
    print(json.dumps({"wall": elapsed, "reference": samples}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
