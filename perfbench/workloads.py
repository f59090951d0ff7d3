"""The benchmark's three fixed workloads.

Each workload is a list of `python -m modinv` command lines.  The lists are
fixed; the seed only decides the order in which a pass runs them and the
inputs of the per-operation timings.  The specs and fields a workload uses
are read off its well-formed commands, so set-up and the per-operation
timings always cover exactly what the commands touch.
"""

from dataclasses import dataclass, field

# Placeholder in a command line for a directory that does not exist.
MISSING_DIR = "{missing}"


@dataclass(frozen=True)
class Command:
    args: tuple                  # arguments after `python -m modinv`
    env: tuple = ()              # extra (name, value) environment pairs
    malformed: bool = False      # must exit 1 with one `error:` line

    @property
    def text(self) -> str:
        prefix = "".join(f"{k}={v} " for k, v in self.env)
        return prefix + " ".join(self.args)

    def option(self, name, default=None):
        args = self.args
        for i, a in enumerate(args):
            if a == name:
                return args[i + 1]
        return default

    @property
    def subcommand(self) -> str:
        return self.args[0]

    @property
    def p(self) -> int:
        return int(self.option("--p"))

    @property
    def blocks(self) -> tuple:
        return tuple(int(s) for s in self.option("--blocks").split(","))

    @property
    def k(self) -> int:
        return int(self.option("--k", "1"))


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    cases: tuple = field(init=False)     # (p, blocks, k) of well-formed commands

    def __post_init__(self):
        cases = []
        for c in self.commands:
            case = (c.p, c.blocks, c.k)
            if not c.malformed and case not in cases:
                cases.append(case)
        object.__setattr__(self, "cases", tuple(cases))

    @property
    def specs(self) -> tuple:
        out = []
        for p, blocks, _ in self.cases:
            if (p, blocks) not in out:
                out.append((p, blocks))
        return tuple(out)

    @property
    def fields(self) -> tuple:
        out = []
        for p, _, k in self.cases:
            if (p, k) not in out:
                out.append((p, k))
        return tuple(out)

    @property
    def largest_block(self) -> int:
        return max(max(blocks) for _, blocks, _ in self.cases)


def _cmd(text, env=(), malformed=False):
    return Command(tuple(text.split()), tuple(env), malformed)


def _sweep_commands():
    out = []
    for p, largest in ((3, 3), (5, 5), (7, 4)):      # q^n <= 3125
        for n in range(1, largest + 1):
            spec = f"--p {p} --blocks {n}"
            out.append(_cmd(f"construct {spec} --ring q"))
            out.append(_cmd(f"construct {spec} --format json"))
            out.append(_cmd(f"verify {spec}"))
            out.append(_cmd(f"export {spec}"))
    out.append(_cmd("verify --p 5 --blocks 2,2"))
    out.append(_cmd("verify --p 3 --blocks 2,2 --k 2"))
    out.append(_cmd("export --p 7 --blocks 5,3,1"))
    # Malformed input: each must end in one `error:` line, never a traceback.
    out.append(_cmd("verify --p 2 --blocks 2 --k 21", malformed=True))
    out.append(_cmd("verify --p 3 --blocks 2", env=[("MODINV_THREADS", "abc")],
                    malformed=True))
    out.append(_cmd(f"construct --p 5 --blocks 3 --out {MISSING_DIR}/x.json",
                    malformed=True))
    return tuple(out)


_TWO_WORKERS = [("MODINV_THREADS", "2")]

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("verify", (
        _cmd("verify --p 11 --blocks 5"),
        _cmd("verify --p 7 --blocks 5 --strict --format json"),
        _cmd("verify --p 3 --blocks 3,2 --k 2", _TWO_WORKERS),
        _cmd("verify --p 2 --blocks 1 --k 16", _TWO_WORKERS))),
    Workload("construct-large", (
        _cmd("construct --p 29 --blocks 29 --ring q --format json"),
        _cmd("export --p 19 --blocks 19"))),
    Workload("sweep-small", _sweep_commands()),
)}
