"""Time one benchmark set-up in a fresh interpreter; print the seconds it
took and the reference-speed scale measured right after it.

    python3 perfbench/setup_probe.py <workload> <seed> <seconds>
"""

import sys

from run import setup_speed, timed_setup

if __name__ == "__main__":
    _, seconds = timed_setup(sys.argv[1], int(sys.argv[2]), float(sys.argv[3]))
    print(f"{seconds!r} {setup_speed()!r}")
