"""Checks of `kgo` output against values this benchmark derives itself.

Every expected number comes from the closed-form laws written out here
(sqrt(1 + 2b(n + 1/2)), the tabulated sqrt(1 + 2b(n + 1)) law, the
second-order expansion, the vector-coupling potential) or from the output's
own internal consistency (Simpson norm, parity symmetry, ascending levels).
Nothing is imported from `kgo`, so a bug there cannot hide itself.

Each check takes the invocation's stdout and raises CheckFailed on the first
mismatch.  A check may return observations (e.g. the oracle error) as a dict.
"""

import json
import math

SIG_DIGITS = 6  # the CLI's default cell precision
TABLE_WARNING_MARK = "sqrt(1 + 2b(n+1))"
VEFF_EXTENT_FACTOR = 2.5  # default veff half extent, in units of the potential zero
ORACLE_LEVEL_SANITY = 0.05  # |k^2/lam - (2n+1)|/(2n+1) beyond this is the wrong level


class CheckFailed(Exception):
    """The output of one invocation disagrees with the expected values."""


def parse(text, fmt):
    """(rows, notes, extra) of one CLI output.

    rows are dicts keyed by column; csv/tsv cells stay strings, json cells are
    whatever json decoded.  notes are the trailing `# ` lines (csv/tsv) or the
    json warnings; extra holds the other top-level json keys.
    """
    if fmt == "json":
        payload = json.loads(text)
        rows = payload.pop("rows")
        notes = payload.pop("warnings")
        return rows, notes, payload
    if not text.endswith("\n"):
        raise CheckFailed("output does not end with a newline")
    sep = "," if fmt == "csv" else "\t"
    columns, *lines = text[:-1].split("\n")
    columns = columns.split(sep)
    first_note = next((i for i, ln in enumerate(lines) if ln.startswith("# ")), len(lines))
    body, notes = lines[:first_note], lines[first_note:]
    if not all(ln.startswith("# ") for ln in notes):
        raise CheckFailed("a data row follows the comment lines")
    notes = [ln[2:] for ln in notes]
    rows = []
    for ln in body:
        cells = ln.split(sep)
        if len(cells) != len(columns):
            raise CheckFailed(f"row {ln!r} has {len(cells)} cells, header has {len(columns)}")
        rows.append(dict(zip(columns, cells)))
    return rows, notes, {}


def printed_tol(printed, exact, decimals):
    """Half a unit in the last printed place, plus float slack."""
    mag = max(abs(printed), abs(exact))
    if decimals is not None:
        half = 0.5 * 10.0 ** -decimals
    elif mag == 0.0:
        half = 0.0
    else:
        half = 0.5 * 10.0 ** (math.floor(math.log10(mag)) - (SIG_DIGITS - 1))
    return half * (1 + 1e-9) + 1e-12 * mag


def expect(name, cell, exact, decimals, slack=0.0):
    """The cell holds `exact` at its printed precision."""
    v = float(cell)
    if not abs(v - exact) <= printed_tol(v, exact, decimals) + slack:
        raise CheckFailed(f"{name}: printed {cell!r}, expected {exact!r}")
    return v


def expect_rows(rows, count):
    if len(rows) != count:
        raise CheckFailed(f"{len(rows)} rows, expected {count}")


def _nodes(extent, points):
    """Symmetric grid nodes, x_i = i * h with signed integer offsets."""
    h = 2.0 * extent / (points - 1)
    half = (points - 1) // 2
    return [i * h for i in range(-half, half + 1)], h


def table(text, *, b, n_max, formula, decimals, fmt):
    rows, notes, _ = parse(text, fmt)
    expect_rows(rows, (n_max + 1) * len(b))
    shift = 1.0 if formula == "table" else 0.5
    for i, row in enumerate(rows):
        n, bv = divmod(i, len(b))
        bv = b[bv]
        if int(row["n"]) != n:
            raise CheckFailed(f"row {i}: n = {row['n']!r}, expected {n}")
        expect(f"row {i} b", row["b"], bv, None)
        expect(f"row {i} e_rel", row["e_rel"], math.sqrt(1.0 + 2.0 * bv * (n + shift)), decimals)
        expect(f"row {i} e_nr_plus_one", row["e_nr_plus_one"], 1.0 + bv * (n + 0.5), decimals)
    warned = any(TABLE_WARNING_MARK in w for w in notes)
    if warned != (formula == "table"):
        raise CheckFailed(f"formula {formula!r}: warning present = {warned}")
    return {}


def spectrum(text, *, n, b, parity, expansion, binding, decimals, fmt):
    rows, _, _ = parse(text, fmt)
    expect_rows(rows, 1)
    row = rows[0]
    m = {"combined": n, "even": 2 * n, "odd": 2 * n + 1}[parity]
    s = m + 0.5
    if expansion == "exact":
        energy = math.sqrt(1.0 + 2.0 * b * s)
    else:
        energy = 1.0 + b * s - 0.5 * (b * s) ** 2
    if int(row["n"]) != n or row["parity"] != parity:
        raise CheckFailed(f"row labels {row['n']!r}, {row['parity']!r}")
    expect("b", row["b"], b, None)
    expect("energy", row["energy"], energy, decimals)
    if binding != ("binding" in row):
        raise CheckFailed(f"binding column present = {'binding' in row}")
    if binding:
        expect("binding", row["binding"], energy - 1.0, decimals)
    return {}


def wavefn(text, *, n, x_max, points):
    """csv at the default precision: grid, exact parity, Simpson norm ~ 1."""
    rows, _, _ = parse(text, "csv")
    expect_rows(rows, points)
    nodes, h = _nodes(x_max, points)
    cells = [r["psi"] for r in rows]
    for i in range(points):
        expect(f"x[{i}]", rows[i]["x"], nodes[i], None)
        mirror = cells[points - 1 - i]
        want = cells[i] if n % 2 == 0 else _negated(cells[i])
        if mirror != want:
            raise CheckFailed(f"parity: psi({rows[i]['x']}) = {cells[i]}, mirror {mirror}")
    # Simpson norm of the printed values; the bound propagates the printing error
    norm = err = 0.0
    for i, cell in enumerate(cells):
        w = 1.0 if i in (0, points - 1) else (4.0 if i % 2 else 2.0)
        v = float(cell)
        norm += w * v * v
        err += w * (2.0 * abs(v) + printed_tol(v, v, None)) * printed_tol(v, v, None)
    norm *= h / 3.0
    err *= h / 3.0
    if not abs(norm - 1.0) <= err + 1e-7:
        raise CheckFailed(f"Simpson norm {norm!r}, printing allows +-{err:.3g}")
    return {}


def _negated(cell):
    if float(cell) == 0.0:
        return cell
    return cell[1:] if cell.startswith("-") else "-" + cell


def oracle(text, *, b, count, decimals):
    """json rows n = 0..count-1; returns the largest error in oscillator quanta."""
    rows, _, _ = parse(text, "json")
    expect_rows(rows, count)
    worst = 0.0
    previous = 0.0
    for n, row in enumerate(rows):
        if row["n"] != n:
            raise CheckFailed(f"row {n}: n = {row['n']!r}")
        k2 = row["k_squared"]
        if not k2 > previous:
            raise CheckFailed(f"level {n}: k^2 = {k2!r} not above the level below ({previous!r})")
        previous = k2
        eq21 = expect(f"level {n} e_eq21", row["e_eq21"], math.sqrt(1.0 + 2.0 * b * (n + 0.5)),
                      decimals, slack=4e-16)
        # from_b has lam = b, so Ebar = sqrt(1 + b k^2 / lam) = sqrt(1 + k^2)
        e_oracle = expect(f"level {n} e_oracle", row["e_oracle"], math.sqrt(1.0 + k2),
                          decimals, slack=4e-16)
        expect(f"level {n} rel_diff", row["rel_diff"], abs(e_oracle - eq21) / eq21,
               decimals, slack=1e-15)
        quanta = 2 * n + 1
        err = abs(k2 / b - quanta) / quanta
        if not err <= ORACLE_LEVEL_SANITY:
            raise CheckFailed(f"level {n}: k^2/lam = {k2 / b!r}, expected about {quanta}")
        worst = max(worst, err)
    return {"err_quanta": worst}


def veff(text, *, b, energy, points, decimals, fmt):
    """Default extent 2.5 x*, x* = 2 sqrt(E)/b; V = E b^2 x^2 - b^4 x^4 / 4."""
    rows, notes, extra = parse(text, fmt)
    expect_rows(rows, points)
    nodes, _ = _nodes(VEFF_EXTENT_FACTOR * 2.0 * math.sqrt(energy) / b, points)
    for i, (row, x) in enumerate(zip(rows, nodes)):
        expect(f"x[{i}]", row["x"], x, decimals)
        a, q = energy * b * b * x * x, 0.25 * b ** 4 * x ** 4
        expect(f"v_eff[{i}]", row["v_eff"], a - q, decimals, slack=1e-12 * (a + q))
    flag = extra.get("unbounded_below_detected") if fmt == "json" else (
        "unbounded_below_detected: true" in notes)
    if flag is not True:
        raise CheckFailed("unbounded_below_detected is not reported true")
    return {}


def outcome(check, returncode, stdout, stderr):
    """(failure reason or None, observations) of one finished invocation."""
    if returncode != 0:
        first = stderr.strip().splitlines()[:1]
        return f"exit {returncode}: {first[0] if first else '(no stderr)'}", {}
    if stderr:
        return f"unexpected stderr: {stderr[:200]!r}", {}
    try:
        return None, check(stdout)
    except (CheckFailed, ArithmeticError, AttributeError, LookupError, TypeError,
            ValueError) as exc:  # malformed output of any kind fails the check
        return f"{type(exc).__name__}: {exc}", {}
