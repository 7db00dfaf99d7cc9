#!/usr/bin/env python3
"""Behaviour oracle: diff every bench and example between two builds.

    tests/oracle_diff.py PARENT_BUILD CHANGE_BUILD

Runs each binary once per build, in a fresh directory (benches write
BENCH_*.json there), and compares exit codes and stdout with host-measured
"host:" lines dropped. The binaries are the change build's SameSeedStdout.*
ctests (from `ctest --show-only=json-v1`) plus fig9, too slow for ctest.
Prints one verdict per binary and exits 1 if any differs.
"""

import difflib
import json
import os
import subprocess
import sys
import tempfile

SLOW = [["bench/fig9_accessparks_usage"]]


def oracle_commands(build):
    listing = subprocess.run(["ctest", "--show-only=json-v1"], cwd=build,
                             check=True, capture_output=True, text=True)
    commands = []
    for test in json.loads(listing.stdout)["tests"]:
        if test["name"].startswith("SameSeedStdout."):
            # determinism_check.sh <binary> [args...]
            binary, *args = test["command"][1:]
            commands.append([os.path.relpath(binary, build), *args])
    return commands + SLOW


def run_both(builds, command):
    """(exit code, masked stdout lines) per build, the two run side by side."""
    with tempfile.TemporaryDirectory() as work:
        procs = []
        for i, build in enumerate(builds):
            os.mkdir(os.path.join(work, str(i)))
            procs.append(subprocess.Popen(
                [os.path.join(build, command[0]), *command[1:]],
                cwd=os.path.join(work, str(i)), stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True))
        outs = [proc.communicate()[0] for proc in procs]
    return [(proc.returncode,
             [l for l in out.splitlines(True) if not l.startswith("host:")])
            for proc, out in zip(procs, outs)]


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    builds = [os.path.abspath(build) for build in argv[1:]]
    differing = 0
    for command in oracle_commands(builds[1]):
        (code0, out0), (code1, out1) = run_both(builds, command)
        same = code0 == code1 and out0 == out1
        differing += not same
        print(f"{'identical' if same else 'DIFFERENT'}  {' '.join(command)} "
              f"(exit {code0}{'' if code0 == code1 else f' -> {code1}'})")
        sys.stdout.writelines(
            list(difflib.unified_diff(out0, out1, "parent", "change"))[:20])
    print(f"{differing} binaries differ" if differing else
          "every binary identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
