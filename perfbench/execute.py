"""Run modinv CLI commands as fresh subprocesses, measured from outside.

Every command is its own interpreter, started with `src` on PYTHONPATH and
standard output sent to a file in the run's work directory.  The commands
are started by spawner.py, a small helper process: wall time is taken
around each subprocess there, and CPU time and peak RSS come from
`os.wait4`, whose resource usage includes the pool workers a command forks
and waits for.
"""

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import MISSING_DIR, Command

# A run must finish well inside three minutes; no command may outlive this.
RUN_DEADLINE_S = 170.0

_SPAWNER = Path(__file__).resolve().parent / "spawner.py"


@dataclass
class Outcome:
    command: Command
    returncode: int
    stdout: bytes
    stderr: str
    wall: float
    cpu: float
    rss_kib: int


@dataclass
class PassResult:
    wall: float
    outcomes: list

    @property
    def cpu(self) -> float:
        return sum(o.cpu for o in self.outcomes)

    @property
    def rss_mib(self) -> float:
        return max(o.rss_kib for o in self.outcomes) / 1024.0


class Executor:
    """Starts commands from one checkout and keeps them inside its deadline.

    Create it before importing anything large (see spawner.py), and close it.
    """

    def __init__(self, root, work):
        self.work = work
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        env = dict(os.environ)
        env.pop("MODINV_THREADS", None)
        src = str(root / "src")
        env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src)
        self._missing = str(work / "missing")
        self._spawner = subprocess.Popen(
            [sys.executable, str(_SPAWNER)], env=env, cwd=root,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self):
        self._spawner.stdin.close()
        self._spawner.wait()
        self._spawner.stdout.close()

    def _request(self, argvs, envs) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("benchmark run exceeded its deadline")
        commands = [{"argv": argv, "env": env,
                     "stdout": str(self.work / f"stdout{i}"),
                     "stderr": str(self.work / f"stderr{i}")}
                    for i, (argv, env) in enumerate(zip(argvs, envs))]
        self._spawner.stdin.write(json.dumps(
            {"commands": commands, "deadline": remaining}) + "\n")
        self._spawner.stdin.flush()
        reply = self._spawner.stdout.readline()
        if not reply:
            raise RuntimeError("command spawner exited")
        reply = json.loads(reply)
        if any(r["killed"] for r in reply["results"]):
            killed = argvs[len(reply["results"]) - 1]
            raise TimeoutError(f"{' '.join(killed)} did not finish before the "
                               "benchmark deadline")
        return reply

    def run_pass(self, commands, launchers=None) -> PassResult:
        """Run commands in order; launchers[i], if given, replaces
        `python -m modinv` for commands[i]."""
        launchers = launchers or [[sys.executable, "-m", "modinv"]] * len(commands)
        argvs = [launcher + [a.replace(MISSING_DIR, self._missing) for a in c.args]
                 for c, launcher in zip(commands, launchers)]
        reply = self._request(argvs, [dict(c.env) for c in commands])
        outcomes = []
        for i, (c, r) in enumerate(zip(commands, reply["results"])):
            outcomes.append(Outcome(
                command=c,
                returncode=r["status"],
                stdout=(self.work / f"stdout{i}").read_bytes(),
                stderr=(self.work / f"stderr{i}").read_text(errors="replace"),
                wall=r["wall"], cpu=r["cpu"], rss_kib=r["rss_kib"]))
        return PassResult(reply["wall"], outcomes)

    def run(self, command: Command, launcher=None) -> Outcome:
        return self.run_pass([command], launcher and [launcher]).outcomes[0]

    def python(self, code: str) -> float:
        """Run `python -c code` in a fresh interpreter; return its wall time."""
        reply = self._request([[sys.executable, "-c", code]], [{}])
        result = reply["results"][0]
        if result["status"] != 0:
            detail = (self.work / "stderr0").read_text(errors="replace").strip()
            raise RuntimeError(f"python -c failed: {detail.splitlines()[-1:]}")
        return result["wall"]
