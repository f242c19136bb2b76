"""Peak resident memory of the largest of a list of gegenkit CLI invocations.

    echo '[["verify", "--lambda-list", "1", "--m-max", "5"]]' | python3 perfbench/peakrss.py

Reads a JSON list of argument lists on standard input, runs each as
``python -m gegenkit.cli`` one after the other, and prints one JSON object:
``children_kb``, the largest child's peak RSS, and ``self_kb``, this
process's own (``VmHWM``).

The benchmark's driver cannot take this figure from its own children.  On
Linux a child started by ``subprocess`` (vfork or fork) starts in its
parent's memory, and ``exec`` records that memory's peak as the child's
``ru_maxrss``; the driver's children would report the driver's peak, which
on exact-tables is its in-process library pass.  This process stays small,
so its children report their own peak, as long as that exceeds ``self_kb``.
Its own ``ru_maxrss`` carries the driver's peak in the same way, so
``self_kb`` is read from ``VmHWM``, which belongs to the memory map alone.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys


def own_peak_kb() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    for args in json.load(sys.stdin):
        subprocess.run([sys.executable, "-m", "gegenkit.cli", *args],
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False)
    print(json.dumps({"self_kb": own_peak_kb(),
                      "children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
