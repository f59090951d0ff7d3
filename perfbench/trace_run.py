"""Traced run: the per-layer metrics of one workload.

Imported only with `--trace 1`.  Passes alternate: one untraced, exactly as
in the timed run, then one where every command runs under tracer.py, each
still in its own fresh interpreter.  Span self times and call counts are
summed over a traced pass and reported as the median over traced passes;
`trace.overhead_s` is the median traced pass wall minus the median
untraced one.  The per-operation figures come from perop.py in a fresh
interpreter of their own.
"""

import json
import random
import statistics
import sys
from pathlib import Path

from workloads import Command

HERE = Path(__file__).resolve().parent

# name -> unit, in the order printed; BENCHMARK.json lists the same names
UNITS = {
    "rings.gf_setup_s": "s",
    "rings.add_ns": "ns",
    "rings.mul_ns": "ns",
    "rings.pow_ns": "ns",
    "action.act_us": "us",
    "action.in_b_us": "us",
    "action.orbit_us": "us",
    "action.act_calls": "count",
    "action.orbit_calls": "count",
    "poly.eval_suite_us": "us",
    "oracle.constancy_s": "s",
    "oracle.separation_s": "s",
    "oracle.lifting_s": "s",
    "oracle.points_per_s": "1/s",
    "action.delta_us": "us",
    "action.delta_s": "s",
    "action.delta_calls": "count",
    "poly.substitute_calls": "count",
    "builder.build_suite_s": "s",
    "builder.connecting_s": "s",
    "builder.connecting_self_s": "s",
    "builder.pass_ms": "ms",
    "builder.delta_matrix_ms": "ms",
    "builder.delta_matrix_s": "s",
    "linalg.solve_s": "s",
    "linalg.det_s": "s",
    "poly.render_ms": "ms",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "cli.startup_s": "s",
    "trace.overhead_s": "s",
}

# span self time (seconds) reported under each metric name
_SELF_TIMES = {
    "oracle.constancy_s": "oracle.constancy",
    "oracle.separation_s": "oracle.separation",
    "oracle.lifting_s": "oracle.lifting",
    "action.delta_s": "action.delta",
    "builder.build_suite_s": "builder.build_suite",
    "builder.connecting_self_s": "builder.connecting",
    "builder.delta_matrix_s": "builder.delta_matrix",
    "linalg.solve_s": "linalg.solve",
    "linalg.det_s": "linalg.det",
    "cli.self_s": "cli.main",
}
_ORACLE = ("oracle.constancy", "oracle.separation", "oracle.lifting")


class Totals:
    """Per span name: self time, duration, calls and summed notes."""

    def __init__(self):
        self.self_s, self.dur_s, self.calls, self.notes = {}, {}, {}, {}
        self.counts = {}

    def add_file(self, path) -> float:
        """Fold in one command's spans; return its cli.main duration."""
        data = json.loads(Path(path).read_text())
        spans = data["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        main = 0.0
        for (name, start, end, _, note), inner in zip(spans, child):
            dur = end - start
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - inner
            self.dur_s[name] = self.dur_s.get(name, 0.0) + dur
            self.calls[name] = self.calls.get(name, 0) + 1
            self.notes[name] = self.notes.get(name, 0) + note
            if name == "cli.main":
                main = dur
        for name, value in data["counts"].items():
            self.counts[name] = self.counts.get(name, 0) + value
        return main

    def pass_metrics(self, startup, output_bytes) -> dict:
        out = {m: self.self_s.get(s, 0.0) for m, s in _SELF_TIMES.items()}
        oracle_s = sum(self.self_s.get(s, 0.0) for s in _ORACLE)
        points = sum(self.notes.get(s, 0) for s in _ORACLE)
        out["oracle.points_per_s"] = points / oracle_s if oracle_s else 0.0
        out["action.act_calls"] = self.counts.get("action.act_calls", 0)
        out["action.orbit_calls"] = self.counts.get("action.orbit_calls", 0)
        out["action.delta_calls"] = self.calls.get("action.delta", 0)
        out["poly.substitute_calls"] = self.counts.get("poly.substitute_calls", 0)
        passes = self.notes.get("builder.connecting", 0)
        out["builder.pass_ms"] = (1e3 * self.dur_s["builder.connecting"] / passes
                                  if passes else 0.0)
        out["poly.render_ms"] = 1e3 * self.self_s.get("poly.render", 0.0)
        out["cli.output_bytes"] = output_bytes
        out["cli.startup_s"] = startup
        return out


def traced_pass(executor, order) -> tuple:
    work = executor.work
    launchers = [[sys.executable, str(HERE / "tracer.py"), str(work / f"spans{i}.json")]
                 for i in range(len(order))]
    result = executor.run_pass(order, launchers)
    totals = Totals()
    startup = 0.0
    for i, outcome in enumerate(result.outcomes):
        startup += outcome.wall - totals.add_file(work / f"spans{i}.json")
    output_bytes = sum(len(o.stdout) for o in result.outcomes)
    return result, totals.pass_metrics(startup, output_bytes)


def traced_run(executor, tally, workload, seed, seconds) -> dict:
    rng = random.Random(seed)
    plain_walls, traced_walls, per_pass = [], [], []
    while not per_pass or sum(plain_walls) + sum(traced_walls) < seconds:
        order = rng.sample(workload.commands, len(workload.commands))
        plain = executor.run_pass(order)
        tally.add(plain)
        plain_walls.append(plain.wall)
        traced, metrics = traced_pass(executor, order)
        tally.add(traced)
        traced_walls.append(traced.wall)
        per_pass.append(metrics)

    perop = executor.run(Command(("--workload", workload.name, "--seed", str(seed))),
                         [sys.executable, str(HERE / "perop.py")])
    if perop.returncode:
        raise RuntimeError(f"perop.py failed: {perop.stderr.strip()[-300:]}")
    figures = json.loads(perop.stdout)
    for name in per_pass[0]:
        figures[name] = statistics.median(m[name] for m in per_pass)
    figures["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - statistics.median(plain_walls))
    return {name: figures[name] for name in UNITS}
