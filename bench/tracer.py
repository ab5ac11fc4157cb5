"""One traced round of a workload, run in-process against `kgo`.

    PYTHONPATH=src python3 bench/tracer.py --workload lookups --seed 1

Times `import kgo.cli`, runs the round once to warm up, then wraps the
public functions of the cli, spectrum, wavefn and oracle modules from outside,
runs the round traced, unwraps them and runs it once more untraced; the
difference of the last two passes is the tracing overhead.  Each wrapped call
records a span (name, start, end, parent span, invocation id) in memory;
per-point functions (psi, hermite, sturm_count) only bump counters, because a
timer per point would cost more than the work it times.  Prints one JSON
object: the per-layer metrics of the traced pass, the spans, and the
invocations that failed their check.
"""

import argparse
import contextlib
import io
import json
import time
from collections import Counter

import checks
import workloads

# (module, function, metric, optional (counter, value of the result)).
# Every timed metric is self time: the call's duration minus its child spans.
TIMED = (
    ("cli", "parse_args", "cli.parse_args_s", None),
    ("cli", "run", "cli.run_self_s", None),
    ("spectrum", "generate_table", "spectrum.generate_table_s", None),
    ("wavefn", "sample", "wavefn.sample_s", None),
    ("oracle", "oracle_energies", "oracle.oracle_energies_s", None),
    ("oracle", "lowest_eigenvalues", "oracle.lowest_eigenvalues_s", ("oracle.levels", len)),
    ("oracle", "discretize_kg", "oracle.discretize_kg_s", None),
    ("oracle", "profile_effective_potential", "oracle.profile_effective_potential_s", None),
)
# (module, name looked up there, call counter, optional (sum counter, value of the args)).
# hermite is counted through the name wavefn imports, where psi calls it.
COUNTED = (
    ("wavefn", "psi", "wavefn.psi_calls", None),
    ("wavefn", "hermite", "specfun.hermite_calls", ("specfun.hermite_steps", lambda a: a[0])),
    ("oracle", "sturm_count", "oracle.sturm_calls",
     ("oracle.sturm_pivots", lambda a: a[0].dimension)),
)
LAYER_METRICS = {  # name -> unit, in the order they are reported
    "import.kgo_s": "s",
    "cli.parse_args_s": "s",
    "cli.run_self_s": "s",
    "cli.stdout_bytes": "bytes",
    "cli.rows": "count",
    "spectrum.generate_table_s": "s",
    "wavefn.sample_s": "s",
    "wavefn.psi_calls": "count",
    "specfun.hermite_calls": "count",
    "specfun.hermite_steps": "count",
    "oracle.oracle_energies_s": "s",
    "oracle.lowest_eigenvalues_s": "s",
    "oracle.discretize_kg_s": "s",
    "oracle.sturm_calls": "count",
    "oracle.sturm_pivots": "count",
    "oracle.sturm_per_level": "sweeps/level",
    "oracle.profile_effective_potential_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Wraps module attributes with span recorders and counters; restore() undoes it."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, invocation id]
        self.counts = Counter()
        self.invocation = 0
        self.missing = []  # wrapped names the program no longer has
        self._open = []
        self._saved = []

    def install(self, modules):
        for module, attr, _, on_result in TIMED:
            self._patch(modules[module], attr, self._timed(f"{module}.{attr}", on_result))
        for module, attr, counter, weight in COUNTED:
            self._patch(modules[module], attr, self._counted(counter, weight))

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, owner, attr, make_wrapper):
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def _timed(self, name, on_result):
        def make(fn):
            def wrapper(*args, **kwargs):
                span = [name, time.perf_counter(), 0.0,
                        self._open[-1] if self._open else -1, self.invocation]
                self._open.append(len(self.spans))
                self.spans.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = time.perf_counter()
                    self._open.pop()
                if on_result:
                    self.counts[on_result[0]] += on_result[1](result)
                return result
            return wrapper
        return make

    def _counted(self, counter, weight):
        counts = self.counts

        def make(fn):
            def wrapper(*args):
                counts[counter] += 1
                if weight:
                    counts[weight[0]] += weight[1](args)
                return fn(*args)
            return wrapper
        return make

    def self_times(self):
        """Self time summed per span name.

        Calls are nested on one thread, so the child spans of a span never
        overlap and the part of it they cover is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = Counter()
        for (name, start, end, _, _), child in zip(self.spans, covered):
            totals[name] += end - start - child
        return totals


def run_pass(cli, round_, tracer=None):
    """Run every invocation through cli.main; (seconds, stdout bytes, rows, failures)."""
    elapsed, out_bytes, rows, failures = 0.0, 0, 0, []
    for i, inv in enumerate(round_):
        if tracer:
            tracer.invocation = i
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(inv.argv))
        except Exception as exc:  # an escaped exception is a failed invocation, not a crash
            code = f"uncaught {type(exc).__name__}: {exc}"
        elapsed += time.perf_counter() - start
        text = out.getvalue()
        out_bytes += len(text.encode())
        reason, _ = checks.outcome(inv.check, code, text, err.getvalue())
        if reason:
            failures.append([" ".join(inv.argv), reason])
        else:
            fmt = inv.argv[inv.argv.index("--format") + 1] if "--format" in inv.argv else "csv"
            rows += len(checks.parse(text, fmt)[0])
    return elapsed, out_bytes, rows, failures


def traced_round(workload, seed):
    start = time.perf_counter()
    import kgo.cli  # timed: this import is the layer measured by import.kgo_s
    import_s = time.perf_counter() - start
    from kgo import oracle, spectrum, wavefn

    round_ = workloads.make_round(workload, seed)
    _, _, _, failures = run_pass(kgo.cli, round_)  # warm-up: first calls compile and cache
    tracer = Tracer()
    tracer.install({"cli": kgo.cli, "spectrum": spectrum, "wavefn": wavefn,
                    "oracle": oracle})
    try:
        traced_s, out_bytes, rows, traced_failures = run_pass(kgo.cli, round_, tracer)
    finally:
        tracer.restore()
    untraced_s, _, _, untraced_failures = run_pass(kgo.cli, round_)

    metrics = dict.fromkeys(LAYER_METRICS, 0)
    selfs = tracer.self_times()
    for module, attr, metric, _ in TIMED:
        metrics[metric] = selfs[f"{module}.{attr}"]
    metrics.update((k, v) for k, v in tracer.counts.items() if k in metrics)
    levels = tracer.counts["oracle.levels"]
    metrics["oracle.sturm_per_level"] = metrics["oracle.sturm_calls"] / levels if levels else 0
    metrics["import.kgo_s"] = import_s
    metrics["cli.stdout_bytes"] = out_bytes
    metrics["cli.rows"] = rows
    metrics["trace.overhead_s"] = traced_s - untraced_s
    return {"metrics": metrics, "attempted": 3 * len(round_),
            "failures": failures + traced_failures + untraced_failures,
            "spans": tracer.spans, "missing": tracer.missing,
            "argv": [list(inv.argv) for inv in round_]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    print(json.dumps(traced_round(args.workload, args.seed)))


if __name__ == "__main__":
    main()
