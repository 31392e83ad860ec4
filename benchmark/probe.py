"""One cold start of a workload, timed from outside by run.py.

    python3 benchmark/probe.py <workload> <seed>

Imports ikdamp, builds the workload's inputs and runs one op, then
prints {"import_s": ...} as soon as the op returns.
"""
import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    t0 = time.perf_counter()
    import ikdamp  # noqa: F401
    import_s = time.perf_counter() - t0
    import workloads

    workload = workloads.make(name, seed, BENCH_DIR.parent, BENCH_DIR / "out")
    workload.op(workload.input(0))
    print(json.dumps({"import_s": import_s}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
