"""End-to-end benchmark of the `kgo` command-line interface.

    python3 bench/run.py --workload lookups --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; `kgo` is imported from ./src.  With
--trace 0 every invocation is a fresh `python -m kgo ...` process, run one
after another in a closed loop (one client, one child at a time), and the
workload's round of invocations repeats until --seconds have passed.  Times
are reported at reference speed (see REF_NOMINAL_S), raw times alongside.
Every output is checked against values the benchmark derives itself.  With
--trace 1 the round instead runs in-process under bench/tracer.py, which
reports per-layer self times and counters.

The report goes to stdout; its last line is one JSON object with the keys
correct, attempted, failed and metrics.  Per-invocation times, and the spans
of a traced run, are written to .bench_out/.
"""

import argparse
import json
import math
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import checks
import workloads
from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 11  # fresh `import kgo.cli` interpreters per run; setup_s is their median
CHILD_TIMEOUT_S = 120.0
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# The CPU speed a process gets on a shared VM drifts by 20-40% within a
# minute.  Before and after each measured child the benchmark times a
# reference child, a fresh interpreter running a fixed loop, and reports the
# measured child's wall time times REF_NOMINAL_S over the mean of the two:
# seconds at reference speed.  On a 2-vCPU VM this cut the run-to-run spread
# of wall_s from 6-23% to 5-8%; raw times are printed too.
REF_ITERATIONS = 60_000
REF_NOMINAL_S = 0.08  # about the median reference time on a 2-vCPU Xeon VM, Python 3.11
REF_CODE = f"""
d = 1.0
for _ in range({REF_ITERATIONS}):
    d = 2.5 - 1.0 / d
    f"{{d:.6g}}"
"""
# The CLI uses no BLAS; an unpinned thread pool only burns CPU at import.
PINNED_ENV = {
    "PYTHONPATH": "src",
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


@dataclass
class Child:
    returncode: object
    stdout: str
    stderr: str
    wall_s: float
    max_rss_mib: float


def reference_s(env):
    """Wall time of a fresh interpreter running a fixed float-and-formatting loop."""
    return run_child([sys.executable, "-c", REF_CODE], env).wall_s


def run_timed(argvs, env):
    """Run each argv in turn between two reference children.

    Yields (child, its wall time at reference speed); consecutive children
    share the reference run between them.
    """
    before = reference_s(env)
    for argv in argvs:
        child = run_child(argv, env)
        after = reference_s(env)
        yield child, child.wall_s * REF_NOMINAL_S / (0.5 * (before + after))
        before = after


def run_child(argv, env):
    """Run one process to exit; wall time from spawn to reaping, and its max RSS."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        out, err = _drain(proc, start + CHILD_TIMEOUT_S)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = "timeout" if wall > CHILD_TIMEOUT_S else proc.returncode
    return Child(code, out.decode(errors="replace"), err.decode(errors="replace"),
                 wall, usage.ru_maxrss / 1024)


def _drain(proc, deadline):
    """Read stdout and stderr to EOF together, so neither pipe can fill and block."""
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            if time.perf_counter() > deadline:
                proc.kill()
            for key, _ in sel.select(timeout=1.0):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])


def child_env():
    env = dict(os.environ)
    env.update(PINNED_ENV)
    return env


def environment_line():
    pinned = " ".join(f"{k}={v}" for k, v in PINNED_ENV.items())
    return (f"env: python {platform.python_version()}, numpy {metadata.version('numpy')}, "
            f"nproc {len(os.sched_getaffinity(0))}; children pinned: {pinned}")


def write_out(name, data):
    """Write one JSON file under .bench_out/ in the checkout; returns its path."""
    path = Path(".bench_out") / name
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(data))
    return path


def tail(samples):
    """(percentile, value): the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return p, ordered[rank - 1]
    return None, None


def measure_setup(env):
    """(seconds at reference speed, raw seconds) of SETUP_RUNS fresh `import kgo.cli`."""
    cmd = [sys.executable, "-c", "import kgo.cli"]
    run_child(cmd, env)  # warm-up: writes the bytecode cache, as any installed copy has
    times = []
    for child, scaled in run_timed([cmd] * SETUP_RUNS, env):
        if child.returncode != 0:
            raise SystemExit(f"bench: `import kgo.cli` failed: {child.stderr.strip()}")
        times.append((scaled, child.wall_s))
    return times


def run_round(round_, env, record, passed):
    """Run and check one round; passed maps an invocation to an output that passed.

    An output identical to one that already passed its check passes again
    without the check, which for the bulk workloads costs as much as the run.
    """
    children = run_timed(([sys.executable, "-m", "kgo", *inv.argv] for inv in round_), env)
    for i, (inv, (child, scaled)) in enumerate(zip(round_, children)):
        ok = child.returncode == 0 and not child.stderr
        if ok and i in passed and passed[i][0] == child.stdout:
            reason, obs = None, passed[i][1]
        else:
            reason, obs = checks.outcome(inv.check, child.returncode, child.stdout, child.stderr)
            if reason is None:
                passed[i] = (child.stdout, obs)
        record(i, inv, child, scaled, reason, obs)


def end_to_end(args, env, report):
    setup = measure_setup(env)
    round_ = workloads.make_round(args.workload, args.seed)
    walls = [[] for _ in round_]  # per invocation: (at reference speed, raw) per round
    rss, failures, err_quanta = [], [], []

    def record(i, inv, child, scaled, reason, obs):
        walls[i].append((scaled, child.wall_s))
        rss.append(child.max_rss_mib)
        if reason:
            failures.append((inv.argv, reason))
        if "err_quanta" in obs:
            err_quanta.append(obs["err_quanta"])

    start = time.perf_counter()
    rounds = 0
    passed = {}
    while rounds == 0 or time.perf_counter() - start < args.seconds:
        run_round(round_, env, record, passed)
        rounds += 1

    known_out = []
    run_round(workloads.make_known_failing(args.workload, args.seed), env,
              lambda i, inv, child, scaled, reason, obs: known_out.append((inv, reason)), {})

    write_out(f"samples-{args.workload}-seed{args.seed}.json",
              {"argv": [inv.argv for inv in round_], "walls": walls, "setup": setup})
    samples = [raw for ws in walls for _, raw in ws]
    attempted = len(samples)

    def round_sum(k):
        """One round's summed time, each invocation at its median over the rounds."""
        return sum(statistics.median(w[k] for w in ws) for ws in walls)

    metrics = {
        "wall_s": round_sum(0),
        "setup_s": statistics.median(scaled for scaled, _ in setup),
        "peak_rss_mb": max(rss),
    }
    report(f"shape: closed loop, 1 client, one `python -m kgo` child at a time; "
           f"{rounds} round(s) of {len(round_)} invocations")
    for name, value in metrics.items():
        report(f"{name:<18} {value:.6g} {END_TO_END[name]}")

    def extra(name, text, note):  # printed, not in the JSON result
        report(f"{name:<18} {text}  (report only; {note})")

    extra("wall_raw_s", f"{round_sum(1):.6g} s", "raw; wall_s and setup_s are at reference speed")
    extra("setup_raw_s", f"{statistics.median(raw for _, raw in setup):.6g} s", "raw")
    extra("lat_p50_s", f"{statistics.median(samples):.6g} s", f"raw, {attempted} samples")
    p, value = tail(samples)
    if p:
        extra("lat_tail_s", f"{value:.6g} s", f"raw, p{p:g} of {attempted} samples")
    else:
        extra("lat_tail_s", "n/a", f"{attempted} samples, fewer than 20")
    if err_quanta:
        extra("oracle_err_quanta", f"{max(err_quanta):.6g} quanta",
              "max |k^2/lam - (2n+1)|/(2n+1) over all rows")
    report(f"ops {attempted}  failed {len(failures)}  "
           f"failed_frac {len(failures) / attempted:.6g}")
    for argv, reason in failures[:10]:
        report(f"FAILED kgo {' '.join(argv)}: {reason}")
    if known_out:
        band = workloads.ORACLE_FAILING_BAND
        known_failed = sum(1 for _, reason in known_out if reason)
        with_known = (len(failures) + known_failed) / (attempted + len(known_out))
        report(f"known-defect band: oracle b in [1e{band},1e{band + 1}) raised BudgetExceeded "
               f"when this benchmark was written; {known_failed} of {len(known_out)} failed "
               f"now, kept out of ops (failed_frac with them {with_known:.6g})")
        for inv, reason in known_out:
            report(f"  kgo {' '.join(inv.argv)}: {reason or 'ok'}")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}}


def traced(args, env, report):
    cmd = [sys.executable, str(HERE / "tracer.py"),
           "--workload", args.workload, "--seed", str(args.seed)]
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < args.seconds:
        child = run_child(cmd, env)
        if child.returncode != 0:
            raise SystemExit(f"bench: tracer failed: {child.stderr.strip()[-2000:]}")
        runs.append(json.loads(child.stdout.splitlines()[-1]))

    spans_path = write_out(f"spans-{args.workload}-seed{args.seed}.json",
                           [{"argv": r["argv"], "spans": r["spans"]} for r in runs])

    metrics = {}
    for name, unit in LAYER_METRICS.items():
        values = [r["metrics"][name] for r in runs]
        if unit == "s":
            metrics[name] = statistics.median(values)
        else:  # counts repeat exactly for a fixed seed
            if len(set(values)) > 1:
                report(f"WARNING {name} differs between traced rounds: {values}")
            metrics[name] = values[0]
    if runs[0]["missing"]:
        report(f"WARNING not found in kgo, reported as 0: {', '.join(runs[0]['missing'])}")
    failures = [f for r in runs for f in r["failures"]]
    attempted = sum(r["attempted"] for r in runs)
    report(f"shape: {len(runs)} traced round(s), in-process, one client; times are medians "
           f"of per-round self time; spans in {spans_path}")
    for name, value in metrics.items():
        report(f"{name:<38} {value:.6g} {LAYER_METRICS[name]}")
    report(f"ops {attempted}  failed {len(failures)}  failed_frac {len(failures) / attempted:.6g}")
    for argv, reason in failures[:10]:
        report(f"FAILED kgo {argv}: {reason}")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {k: {"value": v, "unit": LAYER_METRICS[k]} for k, v in metrics.items()}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not Path("src/kgo/__init__.py").is_file():
        print("bench: run from the root of a kgo source checkout (no src/kgo here)",
              file=sys.stderr)
        return 2
    env = child_env()

    def report(line):
        print(line, flush=True)

    report(f"kgo benchmark: workload {args.workload}, seed {args.seed}, "
           f"{args.seconds:g} s, trace {args.trace}")
    report(environment_line())
    result = (traced if args.trace else end_to_end)(args, env, report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
