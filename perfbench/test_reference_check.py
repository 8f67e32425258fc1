#!/usr/bin/env python3
"""The reference check can fail: corrupt one VM reference digest and
assert that the benchmark counts exactly that one failed operation.

  python3 perfbench/test_reference_check.py

Runs one short round of suite-steady (builds first if needed) with the
benchmark binary's --corrupt-reference hook, from the repository root.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CORRUPTED = 5


def main():
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", "suite-steady", "--seed", "7", "--seconds", "1",
           "--trace", "0", "--corrupt-reference", str(CORRUPTED)]
    proc = subprocess.run(cmd, cwd=os.path.dirname(HERE),
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print("FAIL: benchmark exited with %d" % proc.returncode)
        return 1
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    failed_lines = [l for l in lines if l.startswith("FAILED: ")]
    ok = (result["correct"] is False and result["failed"] == 1 and
          result["attempted"] > CORRUPTED and len(failed_lines) == 1 and
          "VM reference" in failed_lines[0])
    print("%s: attempted %d, failed %d, %s" % (
        "PASS" if ok else "FAIL", result["attempted"], result["failed"],
        failed_lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
