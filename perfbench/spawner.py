"""Run lists of commands on request and report how each went.

Reads one JSON request per line on standard input,
    {"commands": [{"argv": [...], "env": {...}, "stdout": path,
                   "stderr": path}], "deadline": seconds from now}
runs the commands one after another, and writes one JSON line back,
    {"wall": pass seconds, "results": [{"status", "wall", "cpu",
                                        "rss_kib"}, ...]}.
A result carries "killed": true when its command outlived the deadline.

The benchmark starts this process before it imports anything large.  A
child's peak RSS as reported by wait4 is never below that of the process
that started it, so commands must come from a process as small as this one
for `peak_rss_mib` to show the commands' own memory.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(command, deadline):
    env = dict(os.environ, **command["env"])
    killed = threading.Event()
    with open(command["stdout"], "wb") as out, open(command["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command["argv"], env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, start_new_session=True)

        def kill():
            killed.set()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(max(0.0, deadline - time.monotonic()), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"status": proc.returncode, "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime, "rss_kib": usage.ru_maxrss,
            "killed": killed.is_set()}


def main():
    for line in sys.stdin:
        request = json.loads(line)
        deadline = time.monotonic() + request["deadline"]
        start = time.perf_counter()
        results = []
        for command in request["commands"]:
            results.append(run(command, deadline))
            if results[-1]["killed"]:
                break
        wall = time.perf_counter() - start
        sys.stdout.write(json.dumps({"wall": wall, "results": results}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
