"""The host-speed reference, timed in a child process of its own.

The benchmark scales its end-to-end times by how fast the host runs a
fixed chunk of interpreter work right now (see NOTES.md, "Host-speed
scaling"). The chunk runs in a separate, persistent Python process, so
it sees the host's speed but none of the program's own state: threads
the program left running, hooks it installed, or the heap and caches it
filled. The parent asks for one timing at a time over a pipe and waits
for the answer, so the two never run at once.

Run directly, this file is the child: it times one chunk per line read
from standard input and prints the seconds it took.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter


def reference_chunk() -> float:
    """Seconds this host takes, right now, for a fixed chunk of
    interpreter work: calls and dict traffic, the work the program
    spends its time on."""
    start = perf_counter()
    table: dict[int, int] = {}

    def step(x: int) -> int:
        return x + 1

    for i in range(150_000):
        table[i & 1023] = step(i)
        table.get(i & 511, 0)
    return perf_counter() - start


class HostSpeed:
    """A running child process that times the reference chunk on
    request. Close it (or use it as a context manager) to stop it."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def sample(self) -> float:
        """Seconds the reference chunk took in the child, just now."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the host-speed child process exited")
        return float(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def main() -> None:
    while sys.stdin.readline():
        print(repr(reference_chunk()), flush=True)


if __name__ == "__main__":
    main()
