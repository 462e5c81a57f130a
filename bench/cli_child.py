"""Run the isorbit CLI as its console script does, then record peak RSS.

Usage: python3 bench/cli_child.py PEAK_FILE CLI-ARGS...

Calls ``isorbit.cli.main(CLI-ARGS)`` and exits with its status, exactly
like the installed ``isorbit`` script. On the way out it writes the
process's VmHWM (peak resident set, kB) from /proc/self/status to
PEAK_FILE. The parent cannot take it from wait4(): on Linux a child's
ru_maxrss also counts the parent's own peak at the fork, which for the
benchmark process can exceed the CLI's.
"""

import sys


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    from isorbit.cli import main as cli_main

    try:
        return cli_main(sys.argv[2:])
    finally:
        with open(sys.argv[1], "w", encoding="ascii") as f:
            f.write(f"{peak_rss_kb()}\n")


if __name__ == "__main__":
    sys.exit(main())
