"""The library gate: every public function of kgo gives the numbers and the
refusals recorded here.

    python tests/library_gate.py            # check; exits 1 at the first difference
    python tests/library_gate.py --record   # print the digests and rewrite the tables

The output gate pins the CLI's bytes, whose cells mostly hold 6 significant
digits, so a change of one ulp in a library result does not show there.
This gate pins the results themselves.  For each name of kgo.__all__ that
is a function or a class other than an exception, calls(name) is a fixed
table of calls: each argument in turn replaced by every value of EDGES, then
draws from random.Random(0) that take a valid value for each argument, or
now and then an edge value.  Every input is built by exact operations, so
the table is the same on every machine.  Each call is written as one line:
its arguments and its result, every float as float.hex, or the class and
message of the exception it raised.

A function built from + - * /, sqrt, fsum and squares x**2 is held bit for
bit: the sha256 digest of its lines is recorded in DIGESTS.  psi and sample
go through exp, pow and lgamma, which may differ by an ulp between libms, so
their lines are recorded whole in tests/golden/library_<name>.txt and each
float is held to within ULPS ulps of its recorded value, every other
character exactly.  The standard library and kgo are all this needs.
"""

import hashlib
import math
import random
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import kgo  # noqa: E402
from kgo import GridSpec, OscillatorParams, TridiagonalOperator  # noqa: E402

DRAWS = 200  # random calls per function, after the edge calls
ULPS = 2  # the distance a psi or sample value may move from its recorded one
TABLED = ("psi", "sample")  # held to a recorded table, not a digest

# every argument of every function is given each of these in turn: values
# that are no real number, that overflow or underflow, and sequences of the
# wrong kind or holding such values
EDGES = (
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, -1.0, 1e308, -1e308,
    0, 2, 2**70, 10**400, -10**400, 10**5000, True, "1.0", "", b"", b"\x01\x02",
    bytearray(b"\x01\x02"), None, [], [math.nan], [1.0, math.inf], [1.0, None], [[1.0]],
    (0.5, 2.0), range(3),
)

# the digest of each function's lines, recorded with --record
DIGESTS = {
    "GridSpec": "3955fe1ad6c0023d85a786d78b2ce84938ce501978ff6349733c98a73a855efe",
    "OscillatorParams": "8094280a9f388c11f8859ff61a231fd16e81f3acdf7878f5021214527743648e",
    "TridiagonalOperator": "9b3bed5b168d49731513518c819beeb9632dcad1f1ca2bd4690abbc00feb6ad7",
    "binding_energy": "f9498a61f8f82a8b5aa967ea1ed8f0f25f46166565da44a320251ba5e5b21512",
    "binding_second_order": "43ad09fada611371be76b162239cf00c422b947df65a9c3fdf980a1168351d43",
    "default_extent": "4d2a44c11890dbc08ab6a17cf4953e8d2f7c49c4cc1017ba629cf540bcae27e9",
    "discretize_weber": "af203d581efbae09141e560492e3e67f23eb3ef4a0c5dfc7c41ae971ceba7ef8",
    "effective_potential": "21f29e05823623fd70a40ae812789adfb9f7e7083543193ac6506399505b83d0",
    "energy_combined": "e75fc6f03c25469e98169a4f915622cc9ba9b657811e52cb8647cb5a0ec1e850",
    "energy_second_order": "e62040657100cefcc41bfd2925ff1351f09b4008ef9c5c61fb8b140e904b9fbf",
    "from_b": "67224fc21ed8618402b227add396f05fa983dd4f3dbb10df95c63065f9658330",
    "generate_table": "aac366683001ee80c1e729a9b8540c39859fa1eab05708ade08ca579c0cdaaac",
    "hermite": "bddd3012fb299f744a0286f6a0eb737ebf2f671b617d5cb5fe2ce2f7fa2e4dbd",
    "hermite_from_kummer_even": "8f2bd50bc03298fbbfb9a85b0df97bd57f57840473135f82681d50875ad1eca1",
    "hermite_from_kummer_odd": "4969cb98b6b2a54993937632192ad0e0d9a8d5341e07bd1b2599079550f952b8",
    "inner_product": "b59f6048b70c751e559632c34694f35eee6a462fc428e20f3db0213a1d425997",
    "kummer_m": "877d442947a9e902cc526cdfcecd82a55f7e69a8baedf919a57c258705917375",
    "lowest_eigenvalues": "f16b82932bd73e62b6a0a788f2d657669eda771e36d6456b6809a863195b4f07",
    "natural_units": "942e27177f357acdf2c082a61b68e5207f75af6650ae05c445372f6a5902401d",
    "oracle_energies": "8d30b061cc3f1eefdee77023e689e9ef7f8a5fdb29f0ff29168e0bb5f61d73a5",
    "profile_effective_potential": "f36c8a7e8b292596fd9ed1048fbd78d93378fbc19986edd5bffb70e8234c7b96",
    "sturm_count": "a48f6c0b5ce6b136c1fc7f7346bc066ed40a16041bb72b4ae5d09d755d5f1516",
}


def _mantissa(rng):
    """A float in [0.5, 1), drawn exactly."""
    return 0.5 + 0.5 * rng.random()


def _positive(rng):
    return math.ldexp(_mantissa(rng), rng.randrange(-12, 12))


def _wide(rng):
    """A positive float from a subnormal to near the double range's end."""
    return math.ldexp(_mantissa(rng), rng.randrange(-1070, 1024))


def _real(rng):
    value = _wide(rng) if rng.random() < 0.1 else math.ldexp(_mantissa(rng), rng.randrange(-8, 4))
    return rng.choice((-value, value, 0.0))


def _reals(rng, size=None):
    return [_real(rng) for _ in range(size or rng.randrange(1, 6))]


def _level(rng):
    return rng.choice((0, 1, 2, 3, 5, 8, 13, 30, 100, rng.randrange(0, 60)))


def _grid(rng):
    return GridSpec(math.ldexp(_mantissa(rng), rng.randrange(-2, 6)),
                    rng.choice((3, 5, 21, 41)))


def _params(rng, spread=30):
    if rng.random() < 0.3:
        return kgo.from_b(_positive(rng))
    return OscillatorParams(*(math.ldexp(_mantissa(rng), rng.randrange(-spread, spread))
                              for _ in range(4)))


def _near_params(rng):
    return _params(rng, rng.choice((3, 30)))


def _operator(rng):
    if rng.random() < 0.5:
        return kgo.discretize_weber(_positive(rng), _grid(rng))
    diagonal = [math.ldexp(_mantissa(rng), rng.randrange(2, 5)) for _ in range(rng.randrange(3, 9))]
    return TridiagonalOperator(diagonal, -_mantissa(rng))


def _choice(*values):
    return lambda rng: rng.choice(values)


# public name -> one draw of a valid value per argument
SIGNATURES = {
    "GridSpec": (_positive, _choice(3, 5, 21, 1001)),
    "OscillatorParams": (_positive, _positive, _positive, _positive),
    "TridiagonalOperator": (_reals, _real),
    "binding_energy": (_level, _positive),
    "binding_second_order": (_level, _positive),
    "default_extent": (_level, _positive),
    "discretize_weber": (_positive, _grid),
    "effective_potential": (_params, _real, _real),
    "energy_combined": (_level, _positive),
    "energy_second_order": (_level, _positive),
    "from_b": (_positive,),
    "generate_table": (lambda rng: [_positive(rng) for _ in range(rng.randrange(1, 4))],
                       lambda rng: [_level(rng) for _ in range(rng.randrange(1, 4))],
                       _choice("eq21", "table")),
    "hermite": (_level, _real),
    "hermite_from_kummer_even": (_level, _real),
    "hermite_from_kummer_odd": (_level, _real),
    "inner_product": (_choice(GridSpec(1.0, 3)), lambda rng: _reals(rng, 3),
                      lambda rng: _reals(rng, 3)),
    "kummer_m": (_choice(-3, -2.0, 0.0, -12.0, 0.5), _choice(0.5, 1.5, -1.0, 2.25), _real),
    "lowest_eigenvalues": (_operator, _choice(1, 2, 3, 5), _choice(1e-6, 1e-10, 1e-13)),
    "natural_units": (),
    "oracle_energies": (lambda rng: _params(rng, 3), _choice(1, 2, 3, 5), _choice(21, 41, 101),
                        _choice(1e-8, 1e-10)),
    "profile_effective_potential": (_near_params, _real, _grid),
    "psi": (_level, lambda rng: _real(rng) if rng.random() < 0.5 else _reals(rng), _positive),
    "sample": (_level, _grid, _positive),
    "sturm_count": (_operator, _real, _choice(None, 1, 2, 3)),
}
FUNCTIONS = sorted(SIGNATURES)


def _text(value) -> str:
    """value as a line shows it: every float as float.hex, an int past the
    double range by its bit length, and the fields of kgo's own types."""
    if type(value) is float:
        return value.hex()
    if type(value) is int and value.bit_length() > 1024:
        return f"int of {value.bit_length()} bits"
    if isinstance(value, TridiagonalOperator):
        return f"TridiagonalOperator({_text(value.diagonal)}, {_text(value.off_diagonal)})"
    if isinstance(value, (GridSpec, OscillatorParams)):
        return f"{type(value).__name__}({', '.join(map(_text, value))})"
    if isinstance(value, list):
        return f"[{', '.join(map(_text, value))}]"
    if isinstance(value, tuple):
        return f"({', '.join(map(_text, value))})"
    return repr(value)


def calls(name):
    """The argument tuples of name's table: each argument of one valid call
    replaced by every edge value, then DRAWS random calls."""
    rng = random.Random(0)
    signature = SIGNATURES[name]
    if not signature:
        yield ()
        return
    base = [draw(rng) for draw in signature]
    for i in range(len(signature)):
        for edge in EDGES:
            yield tuple(base[:i] + [edge] + base[i + 1:])
    for _ in range(DRAWS):
        yield tuple(rng.choice(EDGES) if rng.random() < 0.1 else draw(rng) for draw in signature)


def lines(name):
    """One line per call of name's table: its arguments, then its result or its exception."""
    function = getattr(kgo, name)
    for args in calls(name):
        try:
            result = "-> " + _text(function(*args))
        except Exception as error:  # noqa: BLE001 - every refusal is pinned
            result = f"!! {type(error).__name__}: {error}"
        yield f"{name}{_text(args)} {result}"


def _table(name) -> Path:
    return ROOT / "tests" / "golden" / f"library_{name}.txt"


_HEX = re.compile(r"-?0x[01]\.[0-9a-f]+p[-+]\d+")  # a finite float.hex


def _within_ulps(got: str, want: str) -> bool:
    """Whether two lines differ only in finite floats that lie within ULPS ulps."""
    if _HEX.sub("", got) != _HEX.sub("", want):
        return False
    pairs = zip(map(float.fromhex, _HEX.findall(got)), map(float.fromhex, _HEX.findall(want)))
    return all(abs(a - b) <= ULPS * math.ulp(max(abs(a), abs(b))) for a, b in pairs)


def check(name):
    """What is wrong with name's results, or None."""
    got = list(lines(name))
    if name not in TABLED:
        digest = hashlib.sha256("\n".join(got).encode()).hexdigest()
        return None if digest == DIGESTS.get(name) else f"digest {digest}, want {DIGESTS.get(name)}"
    want = _table(name).read_text().splitlines()
    if len(got) != len(want):
        return f"{len(got)} lines, want {len(want)}"
    for number, (line, recorded) in enumerate(zip(got, want), 1):
        if not _within_ulps(line, recorded):
            return f"line {number}: got {line[:300]!r}, want {recorded[:300]!r}"
    return None


def record():
    """Rewrite the psi and sample tables and print the DIGESTS to paste above."""
    for name in FUNCTIONS:
        text = "\n".join(lines(name))
        if name in TABLED:
            _table(name).write_text(text + "\n")
        else:
            print(f'    "{name}": "{hashlib.sha256(text.encode()).hexdigest()}",')


def main(argv):
    if argv == ["--record"]:
        record()
        return 0
    for name in FUNCTIONS:
        fault = check(name)
        if fault:
            print(f"library gate: {name}: {fault}", file=sys.stderr)
            return 1
    print(f"library gate: {len(FUNCTIONS)} functions hold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
