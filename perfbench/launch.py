"""Run one command and report how it ran, from a process small enough not to
skew the command's peak memory.

Usage: python3 perfbench/launch.py TIMEOUT_S STDOUT STDERR -- PROGRAM ARGS...

At exec, Linux folds the peak RSS of the address space being replaced into
the new program's ``ru_maxrss``; a child spawned with vfork replaces its
parent's address space. Spawned straight from the benchmark, which holds
numpy and the workload's input, a small CLI run would report the
benchmark's peak instead of its own. This launcher imports only the
standard library, spawns the command with stdin from /dev/null and stdout
and stderr to the given files, and prints one JSON line: exit code, wall
seconds from spawn to exit, user+sys CPU seconds, and peak RSS in MiB. A
command still running after TIMEOUT_S is killed.
"""

import json
import os
import signal
import sys
import time


def main(argv: list[str]) -> int:
    timeout, stdout, stderr, separator, *command = argv
    if separator != "--" or not command:
        raise SystemExit("usage: launch.py TIMEOUT_S STDOUT STDERR -- PROGRAM ARGS...")
    write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout, write, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr, write, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(command[0], command, os.environ, file_actions=actions)

    def expire(signum, frame):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:  # it ended just before the alarm
            pass

    signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, float(timeout))
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    print(json.dumps({
        "code": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
