"""Reference timings for cases too slow for a benchmark run.

    python3 bench/figures.py

Each case runs cold in a fresh interpreter, one after another; the timed
statement follows an untimed set-up statement.  Prints one JSON line per case.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# name: (set-up statement, timed statement)
CASES = {
    "p-13n+6": ("from etaram import PartitionSpec, derive_identity\n"
                "spec = PartitionSpec(1, {1: -1})",
                "assert derive_identity(spec, 13, 6).status == 'Derived'"),
    "generators-16": ("from etaram import generators", "generators(16)"),
    "generators-18": ("from etaram import generators", "generators(18)"),
    "module-basis-18": ("from etaram import generators, module_basis\n"
                        "gens = generators(18)", "module_basis(gens)"),
}

PROGRAM = """
import time
{setup}
start = time.perf_counter()
{timed}
print(time.perf_counter() - start)
"""


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    for name, (setup, timed) in CASES.items():
        proc = subprocess.run([sys.executable, "-c", PROGRAM.format(setup=setup, timed=timed)],
                              cwd=ROOT, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        print(json.dumps({"case": name, "seconds": float(proc.stdout.split()[-1])}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
