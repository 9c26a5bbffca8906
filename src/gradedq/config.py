"""Configuration ingestion for the CLI.

The config is a single JSON document.  Forms are arrays of
{"indices": [distinct ints], "coeff": "polynomial expression"};
polynomial expressions use the grammar of poly.parse_poly (rationals,
x1..xd, + - * ^, parentheses); matrices are row-major arrays of
rational strings (`_CELL`) or finite JSON numbers.  Every diagnostic
names the offending field.  The caps below bound the work a config can
ask for: chart.d and chart.p are checked before any chart is built, and
a bad document raises only ConfigError.
"""

from __future__ import annotations

import json
import math
import re
from decimal import Decimal  # loaded by fractions already
from fractions import Fraction

from .chart import ChartError, ChartSpec, make_chart
from .forms import DiffForm, Section
from .npq import Hamiltonian, theta_m5, theta_vinogradov
from .poly import MAX_EXPONENT, PolyError, parse_poly


# cap on trials (--trials, harness.trials) and on --samples
MAX_TRIALS = 10_000
# cap on chart.d: one Courant trial on v(d, 2), the slowest suite trial,
# grows about as d^2 and takes about 0.5 s at d = 128 (2 s at d = 256)
MAX_D = 128
# cap on chart.p: q-square samples range(count), so every monomial count of
# degree <= p + 1 on d <= MAX_D stays below sys.maxsize (2.1e17 at p = 12)
MAX_P = 12
# cap on the basis that rank --n lists and prints: m5(29)'s 479,544
# monomials of degree 6 take about 2 s and 210 MB with --json
MAX_BASIS = 500_000
# caps on a `matrices` entry, over one common denominator: `genmetric
# build` on a 16 x 16 g of 64-bit entries took 1.7-2.1 s (act: 0.7 s) on
# a 2-core x86-64 host, Python 3.11.7; 64-bit cells with independent
# denominators took 137 s
MAX_MATRIX_SIDE = 16
MAX_ENTRY_BITS = 64


# a string matrix cell: sign, integer digits, then denominator or decimal
# digits.  Its value is built from these groups, not by Fraction(), which
# also takes "1_000" (from Python 3.11 on), other scripts' digits and
# "1e20000000" (expanding its power of ten); `re` compiles it on first use,
# not at import
_CELL = r"\s*([+-]?)(?=\.?\d)(\d*)(?:/(\d+)|\.(\d*))?\s*"


class ConfigError(ValueError):
    """Invalid configuration; message carries the field location."""

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")


# raised by genmetric; defined here so the CLI can catch it without
# importing genmetric
class MatrixError(ValueError):
    pass


def bounded(location: str, value: int, low: int, high: int) -> int:
    """`value` if low <= value <= high, else a ConfigError naming `location`."""
    if value < low:
        raise ConfigError(location, f"must be at least {low}, got {value}")
    if value > high:
        raise ConfigError(location, f"must be at most {high}, got {value}")
    return value


class Config:
    """A parsed config: the chart, theta, named sections and matrices, and
    the harness settings."""

    def __init__(self, chart: ChartSpec, theta: Hamiltonian,
                 sections: dict[str, Section], matrices: dict[str, tuple],
                 trials: int, seed: int | None, max_coeff_degree: int):
        self.chart = chart
        self.theta = theta
        self.sections = sections
        self.matrices = matrices
        self.trials = trials
        self.seed = seed
        self.max_coeff_degree = max_coeff_degree


def _expect(obj, key, where, kind, default=None, required=True):
    if key not in obj:
        if not required:
            return default
        raise ConfigError(f"{where}.{key}", "missing required field")
    val = obj[key]
    # JSON true/false load as bool, a subclass of int; no field takes one
    if not isinstance(val, kind) or isinstance(val, bool):
        names = kind.__name__ if not isinstance(kind, tuple) else \
            "/".join(k.__name__ for k in kind)
        raise ConfigError(f"{where}.{key}", f"expected {names}, "
                          f"got {type(val).__name__}")
    return val


def _known_fields(obj: dict, where: str, fields: list):
    """Refuse the first key of `obj` that is not one of `fields`, so a
    misspelt field is not read as an absent one."""
    for key in obj:
        if key not in fields:
            raise ConfigError(f"{where}.{key}", "unknown field; the known "
                              f"fields are {', '.join(fields)}")


def _parse_form(entries, d: int, rank: int, where: str) -> DiffForm:
    if not isinstance(entries, list):
        raise ConfigError(where, f"expected a list of form terms, "
                          f"got {type(entries).__name__}")
    form = DiffForm(d, rank)
    for k, entry in enumerate(entries):
        loc = f"{where}[{k}]"
        if not isinstance(entry, dict):
            raise ConfigError(loc, "form terms are objects with "
                              "'indices' and 'coeff'")
        indices = _expect(entry, "indices", loc, list)
        if len(indices) != rank:
            raise ConfigError(f"{loc}.indices",
                              f"expected {rank} indices, got {len(indices)}")
        if any(not isinstance(i, int) or isinstance(i, bool) for i in indices):
            raise ConfigError(f"{loc}.indices", "indices must be integers")
        # a repeated index makes a zero term, which add_term would drop
        if len(set(indices)) < len(indices):
            raise ConfigError(f"{loc}.indices", "indices must be distinct")
        coeff = _expect(entry, "coeff", loc, (str, int))
        try:
            poly = parse_poly(str(coeff), d)
        except PolyError as exc:
            raise ConfigError(f"{loc}.coeff", str(exc)) from None
        try:
            form.add_term(tuple(indices), poly)
        except ValueError as exc:
            raise ConfigError(f"{loc}.indices", str(exc)) from None
    return form


def _parse_section(obj, chart: ChartSpec, where: str) -> Section:
    fields = ["v"] + [row[0] for row in chart.section_forms]
    if not isinstance(obj, dict):
        raise ConfigError(where, "sections are objects with "
                          + ", ".join(f"'{name}'" for name in fields))
    d = chart.d
    v_raw = obj.get("v", [])
    if not isinstance(v_raw, list) or (v_raw and len(v_raw) != d):
        raise ConfigError(f"{where}.v", f"expected {d} component expressions")
    v = []
    for mu, expr in enumerate(v_raw or ["0"] * d):
        try:
            v.append(parse_poly(str(expr), d))
        except PolyError as exc:
            raise ConfigError(f"{where}.v[{mu}]", str(exc)) from None
    forms = [_parse_form(obj.get(name, []), d, rank, f"{where}.{name}")
             for name, rank, _, _ in chart.section_forms]
    _known_fields(obj, where, fields)
    return Section(tuple(v), *forms)


def _cell(cell, fullmatch) -> Fraction:
    """The value of one matrix cell, read by `fullmatch` of `_CELL` if it is
    a string; a ValueError says what is wrong."""
    m = isinstance(cell, str) and fullmatch(cell)
    if m:
        sign, num, den, dec = m.groups()
        num, den = int(num or 0), int(den) if den else 10 ** len(dec or "")
        if not den:
            raise ValueError("zero denominator")
        if dec:
            num = num * den + int(dec)
        return Fraction(-num if sign == "-" else num, den)
    if type(cell) in (int, float):  # a JSON number, not a bool
        # json.loads reads NaN, Infinity and a literal past the float range
        if type(cell) is float and not math.isfinite(cell):
            raise ValueError("not a finite number")
        return Fraction(str(cell))
    if type(cell) is Decimal:  # what `_json_float` keeps for 1e-400
        raise ValueError("a nonzero number below the float range")
    raise ValueError("expected an integer, a/b or a decimal in ASCII digits "
                     f"without exponent, got {cell!r}")


def _parse_matrix(rows, where: str) -> tuple:
    if not isinstance(rows, list) or not 0 < len(rows) <= MAX_MATRIX_SIDE:
        raise ConfigError(where, f"expected 1 to {MAX_MATRIX_SIDE} row arrays")
    fullmatch = re.compile(_CELL, re.ASCII).fullmatch  # cached by `re`
    out = []
    den = 1  # the common denominator of the cells so far
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) > MAX_MATRIX_SIDE:
            raise ConfigError(f"{where}[{i}]", f"expected a row array of at most "
                              f"{MAX_MATRIX_SIDE} cells")
        vals = []
        for j, cell in enumerate(row):
            try:
                vals.append(_cell(cell, fullmatch))
            except ValueError as exc:
                raise ConfigError(f"{where}[{i}][{j}]", str(exc)) from None
            den = math.lcm(den, vals[-1].denominator)
            if den.bit_length() > MAX_ENTRY_BITS:
                raise ConfigError(f"{where}[{i}][{j}]", "the common denominator "
                                  f"exceeds {MAX_ENTRY_BITS} bits")
        out.append(tuple(vals))
    if any(len(r) != len(out[0]) for r in out):
        raise ConfigError(where, "rows have unequal lengths")
    for i, row in enumerate(out):
        for j, val in enumerate(row):
            if (val.numerator * (den // val.denominator)).bit_length() > MAX_ENTRY_BITS:
                raise ConfigError(f"{where}[{i}][{j}]", "over the common denominator, "
                                  f"the entry exceeds {MAX_ENTRY_BITS} bits")
    return tuple(out)


def _json_float(literal: str):
    """json.loads' reading of a number with a fraction or an exponent:
    float(literal), except that a nonzero literal below the float range,
    which float() reads as 0, stays exact as a Decimal for `_cell` to
    refuse.  Fraction(literal) would expand its power of ten: 1e-20000000
    takes about 30 s (see `_CELL`)."""
    val = float(literal)
    if val or not literal.lower().partition("e")[0].strip("-.0"):
        return val
    return Decimal(literal)


def parse_config(text: str) -> Config:
    """Parse and validate a config document."""
    try:
        doc = json.loads(text, parse_float=_json_float)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"line {exc.lineno}", f"JSON syntax error: {exc.msg}") \
            from None
    except RecursionError:
        raise ConfigError("<root>", "JSON nested too deep") from None
    except ValueError:  # an integer with more digits than int() converts
        raise ConfigError("<root>", "JSON integer too long") from None
    if not isinstance(doc, dict):
        raise ConfigError("<root>", "config must be a JSON object")

    chart_obj = _expect(doc, "chart", "<root>", dict)
    kind = _expect(chart_obj, "kind", "chart", str)
    d = bounded("chart.d", _expect(chart_obj, "d", "chart", int), 1, MAX_D)
    p = _expect(chart_obj, "p", "chart", int, required=(kind == "vinogradov"))
    if p is not None:
        bounded("chart.p", p, 2, MAX_P)
    try:
        chart = make_chart(kind, d, p)
    except ChartError as exc:
        raise ConfigError("chart", str(exc)) from None

    theta_obj = _expect(doc, "theta", "<root>", dict, required=False, default={})
    ttype = _expect(theta_obj, "type", "theta", str, required=False, default=kind)
    builder = {"vinogradov": theta_vinogradov, "m5": theta_m5}.get(ttype)
    if builder is None:
        raise ConfigError("theta.type", f"expected 'vinogradov' or 'm5', got {ttype!r}")
    # twist forms are read at the chart's own layout, and only for a type of
    # the chart's kind; another type fails on its builder's chart check
    forms = []
    if ttype == chart.kind:
        forms = [_parse_form(theta_obj.get(name, []), d, rank, f"theta.{name}")
                 for name, rank, _ in chart.twist_forms]
        _known_fields(theta_obj, "theta",
                      ["type"] + [row[0] for row in chart.twist_forms])
    try:
        theta = builder(chart, *forms)
    except ValueError as exc:
        raise ConfigError("theta", str(exc)) from None

    sections = {}
    for name, obj in _expect(doc, "sections", "<root>", dict,
                             required=False, default={}).items():
        sections[name] = _parse_section(obj, chart, f"sections.{name}")

    matrices = {}
    for name, rows in _expect(doc, "matrices", "<root>", dict,
                              required=False, default={}).items():
        matrices[name] = _parse_matrix(rows, f"matrices.{name}")

    harness = _expect(doc, "harness", "<root>", dict, required=False, default={})
    trials = bounded("harness.trials", _expect(harness, "trials", "harness", int,
                                               required=False, default=100),
                     1, MAX_TRIALS)
    seed = _expect(harness, "seed", "harness", int, required=False, default=None)
    max_deg = bounded("harness.max_coeff_degree",
                      _expect(harness, "max_coeff_degree", "harness", int,
                              required=False, default=2),
                      0, MAX_EXPONENT)

    return Config(chart=chart, theta=theta, sections=sections, matrices=matrices,
                  trials=trials, seed=seed, max_coeff_degree=max_deg)
