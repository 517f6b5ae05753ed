"""Run one fracint benchmark workload and print its metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from anywhere; the program under test is the ``src/`` next to this
directory.  The last line of standard output is the result as JSON; the line
before it records the machine.  Results and traces go to ``bench/out/``.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"

# One thread: set before numpy is imported.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "compose", "figures"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fracint" / "__init__.py").is_file():
        print(f"bench: no fracint sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from bench import measure

    OUT.mkdir(exist_ok=True)
    result, details = measure.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, OUT)
    print(json.dumps({"environment": details["environment"], "failures": details["failures"],
                      "incorrect": details["incorrect"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
