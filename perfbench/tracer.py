"""Run one modinv CLI command with spans around the calls between layers.

    python3 perfbench/tracer.py SPANS.json CLI-ARGS...

Behaves like `python -m modinv CLI-ARGS...` (same output, exit code and
tracebacks) but first replaces the module attributes through which the
layers call each other with wrappers.  Coarse calls get a span (name,
start, end, parent, note); calls made per point or per monomial only count,
since a span each would cost more than the call.  Spans and counts stay in
memory and are written to SPANS.json when the command ends.  Pool workers
fork with the wrappers in place, but what they record is not collected.
"""

import functools
import json
import sys
import time


class Recorder:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index, note]
        self.counts = {}
        self._open = []

    def span(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), None, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    record[4] = note(args, result)
                return result
            finally:
                record[2] = clock()
                stack.pop()
        return wrapper

    def count(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans,
                       "counts": {k: v[0] for k, v in self.counts.items()}}, fh)


def _points(args, _):
    suite, ring = args[0], args[1]
    return ring.order ** suite.spec.n


def install(recorder):
    from modinv import action, builder, cli, linalg, oracle, poly

    act = recorder.count("action.act_calls", action.act_raw)
    action.act_raw = act            # orbit_raw steps through this name
    oracle.act_raw = act
    oracle.orbit_raw = recorder.count("action.orbit_calls", action.orbit_raw)
    poly.Polynomial.substitute = recorder.count(
        "poly.substitute_calls", poly.Polynomial.substitute)

    builder.delta = recorder.span("action.delta", action.delta)
    builder.construct_connecting = recorder.span(
        "builder.connecting", builder.construct_connecting,
        note=lambda args, result: len(result.steps))
    builder._delta_matrix = recorder.span("builder.delta_matrix", builder._delta_matrix)
    linalg.solve_unique = recorder.span("linalg.solve", linalg.solve_unique)
    linalg.det_int = recorder.span("linalg.det", linalg.det_int)
    poly.Polynomial.render_text = recorder.span("poly.render", poly.Polynomial.render_text)
    poly.Polynomial.to_json_dict = recorder.span("poly.render", poly.Polynomial.to_json_dict)

    cli.build_suite = recorder.span("builder.build_suite", builder.build_suite)
    cli.verify_orbit_constancy = recorder.span(
        "oracle.constancy", oracle.verify_orbit_constancy, note=_points)
    cli.separation_report = recorder.span(
        "oracle.separation", oracle.separation_report, note=_points)
    cli.verify_lifting = recorder.span(
        "oracle.lifting", oracle.verify_lifting,
        note=lambda args, _: args[1].order ** args[0])
    return recorder.span("cli.main", cli.main)


def main():
    path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    cli_main = install(recorder)
    try:
        code = cli_main(argv)
    finally:
        recorder.dump(path)
    sys.exit(code)


if __name__ == "__main__":
    main()
