"""Set-up probe: a fresh interpreter imports ``repro`` and runs one
minimal pass of a workload, which pays every lazy import and one-time
build (decoder tables, decoding graphs).  It prints one JSON line when
done; the parent times it from spawn to that line.

    python3 perfbench/probe.py --workload NAME
"""

import json
import sys
import time

START = time.perf_counter()
PRELOADED = sorted(sys.modules)


def main() -> int:
    import argparse
    from pathlib import Path

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workload.run(workload.tiny, 1)
    report = {
        "elapsed_s": time.perf_counter() - START,
        "preloaded": PRELOADED,
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
