"""Run a pipe of borcherds-kit commands and report what it cost.

Each argument is one command line of the kit, without the program name; the
commands are joined by pipes, the first reading no input. Run it from the
root of a checkout:

    python tests/peak_rss.py "phi --n 3 --prec 9" "lift --prec 6"

Each command runs as ``python -m borcherdskit`` under this interpreter, with
src/ of the checkout first on PYTHONPATH. The report is one line: the wall
time of the whole pipe, the bytes the last command wrote, the first 12 hex
digits of their sha256, and the largest ru_maxrss among the commands, read
per child with os.wait4. Standard library only. It only reports; it never
fails on size, and exits 1 only when a command fails.
"""

import hashlib
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CHUNK = 1 << 16


def run(commands: list[str]) -> tuple[float, int, str, int, list[int]]:
    """(wall seconds, bytes out, sha256 hex, peak RSS in KiB, exit codes)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    procs, stdin = [], subprocess.DEVNULL
    for command in commands:
        proc = subprocess.Popen([sys.executable, "-m", "borcherdskit", *shlex.split(command)],
                                stdin=stdin, stdout=subprocess.PIPE, env=env)
        if procs:
            procs[-1].stdout.close()  # the child holds it now
        procs.append(proc)
        stdin = proc.stdout
    digest, size = hashlib.sha256(), 0
    while chunk := procs[-1].stdout.read(CHUNK):
        digest.update(chunk)
        size += len(chunk)
    procs[-1].stdout.close()
    peak, codes = 0, []
    for proc in procs:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        codes.append(proc.returncode)
        peak = max(peak, usage.ru_maxrss)  # KiB on Linux
    return time.perf_counter() - start, size, digest.hexdigest(), peak, codes


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    wall, size, sha, peak, codes = run(argv)
    print(f"{' | '.join(argv)}: {wall:.2f} s, {size} bytes, sha256 {sha[:12]}, "
          f"peak RSS {peak / 1024:.0f} MB" + ("" if not any(codes) else f", exit codes {codes}"))
    return 1 if any(codes) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
