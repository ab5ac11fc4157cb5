"""The output gate: kgo's stdout, exit codes, error texts and start-up imports.

    python tests/output_gate.py

Each case runs in a fresh child of the interpreter that runs this script, with
the repository's src/ first on its path.  The child enters kgo as the console
script does (the [project.scripts] function of pyproject.toml) or as
`python -m kgo` does.  Just before the child ends through os._exit, which only
cli.entry calls in it, the child writes its sys.modules to an inherited pipe,
and apart the modules loaded since it started; a process that the oracle or
the table writer forks from it ends through os._exit too, and writes nothing.
So one child checks its exit code, stdout and stderr, that it ended through
cli.entry, that it loaded no forbidden module, however it was imported, that
it loaded no kgo module beyond those its case names, and that kgo loaded
neither `numbers` nor `typing`.  Some cases run under `python -S`, where no
site `.pth` imports `typing` first, and some under `python -X dev -W error`,
where any warning a start raises, such as a deprecation in a newer Python,
fails the case.  The standard library is all this needs (bench/workloads.py,
which draws the benchmark's argvs, is stdlib-only too).  Exits 1 at the first
difference, naming the case, or 0.
"""

import hashlib
import itertools
import os
import re
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# no module whose name holds one of these may load: numpy is not a runtime
# dependency, and dataclasses (with inspect), argparse and json would slow every
# start, since cli reads argv and writes help, usage errors and json itself
FORBIDDEN = ("numpy", "dataclasses", "inspect", "argparse", "json")
# nor may kgo load these, though a site .pth may have loaded them before it:
# kgo's rules take the CLI's floats and ints without numbers, and its
# annotations need no typing
NOT_LOADED_BY_KGO = ("numbers", "typing")
_CHILD = """\
import os, sys
sys.path.insert(0, {src!r})
def _exit(code, exit=os._exit, write=os.write, started=set(sys.modules), pid=os.getpid()):
    if os.getpid() == pid:  # a child that kgo forks ends through os._exit too
        write({fd}, (" ".join(sys.modules) + "\\n"
                     + " ".join(set(sys.modules) - started)).encode())
    exit(code)
os._exit = _exit
{body}
"""
_MODULE = "import runpy\nrunpy.run_module('kgo', run_name='__main__', alter_sys=True)"

# the kgo modules every start loads: the package, the CLI, the exceptions with
# the input rules, and the closed-form spectrum that table and spectrum run
START = ("kgo", "kgo.cli", "kgo.errors", "kgo.spectrum")
# subcommand -> the kgo modules its builder adds; -h or --help adds kgo.helptext alone
BUILDER = {"table": (), "spectrum": (), "wavefn": ("kgo.params", "kgo.wavefn"),
           "oracle": ("kgo.params", "kgo.oracle"), "veff": ("kgo.params", "kgo.oracle")}

# the interpreter options the README commands run under once more each: no site,
# and development mode with every warning an error
README_FLAGS = (("-S",), ("-X", "dev", "-W", "error"))

# the stdout digests of the benchmark rounds at seed 1 (bench/workloads.py), in
# the order a round runs its argvs; None where a README golden pins the bytes
BENCH_DIGESTS = {
    "oracle-sweep": (
        "3b7a40f190a682693ba31ad53251c8c8e04818cf499a050b7debd2e80b7bdf80",
        "44ce9748d034e730936ed745e818de7b55b44e0c2c3890ae37f7b90be34be5fb",
        "047ef97ce2e6d3478d1209f63ff904954d1f9d0b5a06ee8f6e4e4f709ae62cdd",
        "077964068612b17f07b8fb1080891aa31b0b814a7b12951fea5a1850548b1f86",
        "dffbed107aed9095ba4853e3e8aab0052e09871cf03925fbe828eae9c96d608c",
        "b4ec381236190bc10dbec440e1c27c4da02bec56eb85f015a5416d6e273a1140",
        "ab83113bfeab3b8f29fcced9f50defe3d3bd07e917ba16930c271e732bcf17db",
        "1afd9005a236d4454aaec9cf8e46ba3e4716e35421a41acf398d452c68db23de",
        "e414304ac1b7d410ec9b2e417660b089c08b556412154655d803c23fefabc947",
        "b98593387e969a2e92854118e1dc6c9ca2ae077dda2fda133a2b38a3bd7025c5",
        "3f360af2b6b8c564c3fb411dd717be3a7f85c0134756d71185d76dcf866c11db",
        "53598824348f79d9296edbb4e3549fadc685cef5b6235dc664f72b6419e7391e",
    ),
    "lookups": (
        "ff61404a99011313e154038205b273f9be2c7de9f3da4a02a33662c4b05dfe0e",
        "f4e939f38a418197d24960293e794644c5de5c226f5fab64191b068b4ece8b8b",
        "13678bfe240c98ca2a6c70920ee5be8c5b65b61c186a5491ef10b1afcb645abc",
        "9a918d610033805059501cb991e7792aa9a36c33be35fa1c0e00c7ff802ef0e3",
        "f544f9fa724bf36c223e23ce689977a2825f7e3468591e8c541150937c6290b5",
        "eef362b93c265559679f783ce4780e731e960bc21acef708e33c5006ecdc29fd",
        "0557bc1cbee7743174f903bac4c5c0a1af9a07cad6e4d2b8aae9eb382793f4a8",
        "3e7f9063c5c39d982c9a924832d70581ef3570d33b2720d40dfab61824a310c6",
        "3943a0f976fdb417b071a1bdb2dba4e65e957cafb87ea7e2f3c0fe4312f3648a",
        "21ed20e1ee3a8cc8b37f7604bb2693cbebd773f600eedcfdcc6c7cda2918f699",
        "e52e04d37bb6320577c4461eeb378cf7a2894e5257463f517bdda4d6898e3c20",
        "3e5420b66809882e86c4f6005080d0761c2c2283937a1a7767086dd953cbeabe",
        None,  # the README table
        "23a113285499e2cc721248afe84c71b7abd66ad6a2a9197a99e80ef31e89272d",
        "614559060f380df4c1b7ac54a1be24882fa8c2cff2a3d407fff1c405f48b5c94",
        "b972dedf36d5794a963202ba57721a6a8c23beab52f08c353fc8626c5a7a9fad",
    ),
    "wavefn-grid": (
        "39f6ae71fad7d0070a875d66a3c3f0994635c1018e1d758306d5bfd660dec37b",
        "4c390cca090ecc4498502d95382043d7484d32100259e425e57d3c40a22f7966",
        "60350afd51dba4aa1413b6dd54e63bce8a23ac81d88b04a828ce2d26975670a6",
        "3e767a4a3b30d1573c1b6024bbf6f52152f72daff1563c2c72b6366f07a59b81",
    ),
}

# stdout: the exact bytes, a sha256 hex digest, or None (not checked); stderr: the
# exact bytes; kgo: the kgo modules the child may load; flags: the interpreter's options
Case = namedtuple("Case", "name body argv code stdout stderr kgo flags", defaults=(START, ()))


def readme_commands(readme=None):
    """The argvs of the README's example commands: the `kgo ` lines of the
    fenced bash block under "## CLI", and no other line of readme (the text
    of README.md by default)."""
    readme = (ROOT / "README.md").read_text() if readme is None else readme
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("\n```bash\n", 1)[1].split("\n```", 1)[0]
    return [tuple(line.split()[1:]) for line in block.splitlines() if line.startswith("kgo ")]


def _may_fork(argv):
    """Whether a start on argv, which parses, may load kgo.fork to ask
    whether a child can take a part of its work: a table whose emission, as
    kgo's own builder makes it (it computes no block until one is taken),
    has two blocks or more and cli._FORK_MIN_ROWS rows or more; a wavefn or
    veff grid of as many points and more than TABLE_BLOCK; a wavefn whose
    nodes x >= 0 could hold two works of wavefn._WORK_STEPS steps (those
    past psi's underflow start hold none); or an oracle of more than one
    level (whose sweeps may or may not reach oracle._FORK_MIN_ROWS rows)."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from kgo.cli import _FORK_MIN_ROWS, COMMANDS, TABLE_BLOCK, parse_args
        from kgo.wavefn import _POINT_STEPS, _WORK_STEPS
    finally:
        sys.path.remove(str(ROOT / "src"))
    if argv[0] == "table":
        ns = parse_args(argv)
        emission = ns.build(ns)
        return emission.count > 1 and emission.rows >= _FORK_MIN_ROWS
    # none of these commands takes a flag
    options = {option.flag: option.default for option in COMMANDS[argv[0]][2]}
    options.update(zip(argv[1::2], argv[2::2]))
    if argv[0] in ("wavefn", "veff"):
        points = int(options["--points"])
        if points > TABLE_BLOCK and points >= _FORK_MIN_ROWS:
            return True
        return argv[0] == "wavefn" and (
            (points // 2 + 1) * (int(options["--n"]) + _POINT_STEPS) >= 2 * _WORK_STEPS)
    return argv[0] == "oracle" and int(options["--count"]) > 1


def started(argv, code):
    """The kgo modules a CLI start on argv that exits with code may load: a
    usage error (code 2) runs no builder, and help runs none either."""
    if "-h" in argv or "--help" in argv:
        return START + ("kgo.helptext",)
    if code == 2:
        return START
    return START + BUILDER[argv[0]] + (("kgo.fork",) if _may_fork(argv) else ())


def _bench_argvs(workload):
    """The argvs of one round of a benchmark workload at seed 1."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return [invocation.argv for invocation in workloads.make_round(workload, 1)]


def _script():
    """The child body that enters kgo as the console script does."""
    module, function = re.search(r'^kgo = "([\w.]+):(\w+)"$',
                                 (ROOT / "pyproject.toml").read_text(), re.M).groups()
    return f"from {module} import {function}\nsys.exit({function}())"


def cases():
    script = _script()
    readme = readme_commands()
    runs = {}  # argv -> (code, stdout, stderr)
    for index, argv in enumerate(readme, 1):
        for extra, suffix in [((), "txt"), *((("--format", s), s) for s in ("json", "tsv"))]:
            golden = ROOT / "tests" / "golden" / f"readme_{index}_{argv[0]}.{suffix}"
            runs[argv + extra] = (0, golden.read_bytes(), b"")
    runs[("--help",)] = (
        0, "16e0323c7491f8b90d61adce5c8f320a4dda8e6c378a4ec31992e85036643212", b"")
    # the table-bulk round at seed 1, recorded when the writer formatted each cell alone
    bulk = ("table", "--b", "0.000123,0.000702,0.00806,0.0436", "--n-max", "49999")
    runs[bulk] = (0, "6e0324e94d1612c4a202d4cb2d595b5eb8e2c7a10b4194275cca808dfd56414c", b"")
    runs[bulk + ("--formula", "table", "--decimals", "5", "--format", "json")] = (
        0, "d523cb088fe3d67a955e5d55a5d85438251795c93a81c1ef8e6c99f0385a796b", b"")
    errors = {
        ("table", "--b", "0.1", "--n", "5"): (2, "unrecognized arguments: --n"),
        ("nonsense",): (2, "argument command: invalid choice: 'nonsense' (choose from "
                           "'table', 'spectrum', 'wavefn', 'oracle', 'veff')"),
        ("spectrum", "--b", "-1", "--n", "0"):
            (2, "argument --b: must be a positive and finite number, got '-1'"),
        ("wavefn", "--n", "1", "--lambda", "1", "--points", "4"):
            (2, "argument --points: must be an odd integer in [3, 1000001], got '4'"),
        ("spectrum", "--b", "1e308", "--n", "1000000"):
            (1, "energy sqrt(1 + 2b(n + 0.5)) exceeds the floating-point range"),
        ("oracle", "--b", "1e5", "--count", "5"):
            (1, "eigenvalue 3: bracket still 1.16415e-10 wide after 200 bisection steps "
                "(tol = 1e-10)"),
        ("oracle", "--b", "1e200", "--count", "3"):
            (1, "operator diagonal 2/h^2 + lam^2 x^2 exceeds the floating-point range"),
        ("oracle", "--b", "0.1", "--count", "1000002"):
            (1, "count must be in [1, 1999], got 1000002"),
    }
    runs.update((argv, (code, b"", f"kgo: error: {text}\n".encode()))
                for argv, (code, text) in errors.items())
    # argvs whose stdout is not pinned, unless a case above pins it
    unpinned = [(command, "--help") for command in ("table", "spectrum", "wavefn", "oracle",
                                                    "veff")]
    unpinned += [("spectrum", "--b", "0.01", "--n", "3", "--parity", parity, "--expansion",
                  expansion, *binding, "--format", output_format)
                 for parity, expansion, binding, output_format in itertools.product(
                     ("even", "odd", "combined"), ("exact", "second-order"),
                     ((), ("--binding",)), ("csv", "tsv", "json"))]
    unpinned += [readme[4] + ("--format", output_format)  # the README oracle command
                 for output_format in ("csv", "tsv", "json")]
    # 5 values of b make blocks of 3276 levels: 4001 levels are 2 blocks of 20005 rows
    unpinned.append(("table", "--b", "0.1,0.2,0.3,0.4,0.5", "--n-max", "4000"))
    for workload, digests in BENCH_DIGESTS.items():
        for argv, digest in zip(_bench_argvs(workload), digests, strict=True):
            runs.setdefault(argv, (0, digest, b""))
    for argv in unpinned:
        runs.setdefault(argv, (0, None, b""))
    yield from (Case(" ".join(("kgo",) + argv), script, argv, *want, started(argv, want[0]))
                for argv, want in runs.items())
    # python -m kgo gives the same bytes and codes, and ends through cli.entry too
    for argv in readme + [("table", "--b", "0.1", "--n", "5"),
                          ("spectrum", "--b", "1e308", "--n", "1000000")]:
        yield Case(" ".join(("python -m kgo",) + argv), _MODULE, argv, *runs[argv],
                   started(argv, runs[argv][0]))
    # without site, nothing imports typing before kgo: each subcommand's start still does
    # not; and in development mode with warnings as errors each start warns of nothing
    for flags in README_FLAGS:
        for argv in readme:
            yield Case(" ".join((f"python {' '.join(flags)}: kgo",) + argv), script, argv,
                       *runs[argv], started(argv, runs[argv][0]), flags)
    for body, kgo in [("import kgo, kgo.cli", START),
                      ("import kgo, kgo.cli, kgo.oracle\nkgo.GridSpec(1.0, 3)",
                       START + ("kgo.params", "kgo.oracle"))]:
        yield Case(body.replace("\n", "; "), body + "\nos._exit(0)", (), 0, b"", b"", kgo)


def _difference(stream, want, got):
    """What is wrong with one output stream, or None."""
    if isinstance(want, str):  # a sha256 digest
        got = hashlib.sha256(got).hexdigest()
    if want is None or got == want:
        return None
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return f"{stream} differs at {at}: got {got[at:at + 60]!r}, want {want[at:at + 60]!r}"


def run(case):
    """(the finished child, its sys.modules as it ended, the modules it loaded
    since it started); both lists are empty if it did not end through cli.entry."""
    read_end, write_end = os.pipe()
    with open(read_end, "rb") as report:
        try:
            proc = subprocess.run(
                [sys.executable, *case.flags, "-c", _CHILD.format(
                    src=str(ROOT / "src"), fd=write_end, body=case.body), *case.argv],
                stdin=subprocess.DEVNULL, capture_output=True, pass_fds=(write_end,), cwd=ROOT)
        finally:
            os.close(write_end)  # the child's copy is the only one left: EOF when it ends
        modules, _, since = report.read().decode().partition("\n")
    return proc, modules.split(), since.split()


def check(case):
    """What is wrong with one case, or None."""
    proc, modules, since = run(case)
    fault = ("it did not end through cli.entry" if not modules
             else proc.returncode != case.code and f"want {case.code}")
    if fault:
        return f"exit code {proc.returncode}, {fault}; stderr {proc.stderr[-400:]!r}"
    loaded = [name for name in modules if any(word in name for word in FORBIDDEN)]
    unwanted = sorted(name for name in modules if name.partition(".")[0] == "kgo"
                      and name not in case.kgo)
    late = [name for name in NOT_LOADED_BY_KGO if name in since]
    return ((loaded and f"loaded {', '.join(loaded)}")
            or (unwanted and f"loaded kgo modules {', '.join(unwanted)} beyond its own")
            or (late and f"kgo loaded {', '.join(late)}")
            or _difference("stdout", case.stdout, proc.stdout)
            or _difference("stderr", case.stderr, proc.stderr))


def start_report():
    """A markdown table of what a start loads: for the first README command of
    each subcommand and for --help, the kgo modules and their lines (wc -l)."""
    argvs = {}
    for argv in readme_commands():
        argvs.setdefault(argv[0], argv)
    rows = ["| kgo argv | kgo modules loaded | lines |", "|---|---|---|"]
    for argv in [*argvs.values(), ("--help",)]:
        _, modules, _ = run(Case("", _script(), argv, 0, None, b""))
        kgo = sorted(name for name in modules if name.partition(".")[0] == "kgo")
        paths = [ROOT / "src" / name.replace(".", "/") for name in kgo]
        lines = sum((path / "__init__.py" if path.is_dir() else path.with_suffix(".py"))
                    .read_bytes().count(b"\n") for path in paths)
        rows.append(f"| `{' '.join(argv)}` | {', '.join(kgo)} | {lines} |")
    return "\n".join(rows)


def main():
    for count, case in enumerate(cases(), 1):
        fault = check(case)
        if fault:
            print(f"output gate: {case.name}: {fault}", file=sys.stderr)
            return 1
    print(f"output gate: {count} cases hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
