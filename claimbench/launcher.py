"""Runs the benchmark's invocations from a process kept near the size of a
bare interpreter.

The kernel counts the resident set of the spawning process towards a
spawned child's peak RSS, so children spawned from the benchmark itself,
which holds parsed outputs and the reference, would report its memory.
Start this with ``python3 -I -S`` so it imports nothing else.

It also times a fixed piece of pure-Python work, independent of the program
under test, so that the benchmark can take out the speed of the shared host,
which drifts by a third over minutes.

Protocol: one JSON request per stdin line, either
``{"argv", "stdout", "stderr", "timeout"}``, answered by one JSON line
``{"wall_s", "cpu_s", "peak_rss_mb", "exit_code"}``, or ``{"calibrate": true}``,
answered by ``{"calib_s"}``. CPU time
and peak RSS come from ``os.wait4``, which covers the child and the
descendants it reaped, such as pool workers. Each child leads its own
process group, which is killed on timeout or when this process is
interrupted, so no pool worker outlives it.
"""

import itertools
import json
import os
import signal
import sys
import time

# Adjacency rows of a fixed asymmetric graph on 7 vertices.
CALIBRATION_ROWS = (0b0010110, 0b1001001, 0b0100101, 0b1000010, 0b0110001, 0b1010000, 0b0001110)


def calibrate(rounds: int = 8) -> float:
    """Seconds to find, by brute force over all vertex orders, the least
    packed adjacency code of CALIBRATION_ROWS, ``rounds`` times."""
    n = len(CALIBRATION_ROWS)
    start = time.perf_counter()
    for _ in range(rounds):
        best = None
        for perm in itertools.permutations(range(n)):
            code = 0
            for i in range(n):
                row = CALIBRATION_ROWS[perm[i]]
                for j in range(i + 1, n):
                    code = code << 1 | (row >> perm[j] & 1)
            if best is None or code < best:
                best = code
    return time.perf_counter() - start


def run(req: dict) -> dict:
    write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, req["stdout"], write, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, req["stderr"], write, 0o644),
    ]
    state = {"pid": None}

    def on_alarm(signum, frame):
        if state["pid"] is not None:
            os.killpg(state["pid"], signal.SIGKILL)

    signal.signal(signal.SIGALRM, on_alarm)
    start = time.perf_counter()
    pid = os.posix_spawn(
        req["argv"][0], req["argv"], os.environ, file_actions=actions, setpgroup=0
    )
    state["pid"] = pid
    signal.setitimer(signal.ITIMER_REAL, max(req["timeout"], 0.001))
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.killpg(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        state["pid"] = None
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit_code": os.waitstatus_to_exitcode(status),
    }


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        reply = {"calib_s": calibrate()} if req.get("calibrate") else run(req)
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
