#!/usr/bin/env python3
"""Run the full property-sweep battery and print a pass/fail table.

Equivalent to `hktheta sweep`, but with wall-clock timings per sweep; handy
when tuning the sweep ranges.  Exits nonzero if anything fails.
"""

import sys
import time

from hktheta import sweeps


def main() -> int:
    total_passed = total_failed = 0
    for sweep in sweeps.SWEEPS:
        t0 = time.perf_counter()
        result = sweep()
        elapsed = time.perf_counter() - t0
        print(
            f"{result.name:28s} passed={result.passed:<6d} "
            f"failed={result.failed:<4d} ({elapsed:.2f}s)"
        )
        total_passed += result.passed
        total_failed += result.failed
    print(f"{'total':28s} passed={total_passed:<6d} failed={total_failed}")
    return 1 if total_failed else 0


if __name__ == "__main__":
    sys.exit(main())
