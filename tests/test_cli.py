"""Config parsing, command dispatch, exit codes, and report determinism."""

import decimal
import io
import json
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedq import (Config, ConfigError, cli, config, element, make_chart,
                     parse_config)
from gradedq.cli import main
from gradedq.element import monomial_count

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN_PASS = str(DATA / "golden_pass.json")
GOLDEN_FAIL = str(DATA / "golden_fail.json")
GOLDEN_ERROR = str(DATA / "golden_error.json")
M5 = str(DATA / "m5.json")


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    env.pop("GB_SEED", None)
    if env_extra:
        env.update(env_extra)
    out = subprocess.run([sys.executable, "-m", "gradedq.cli", *argv],
                        capture_output=True, text=True, env=env)
    return out


# ---------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------

class TestConfig:
    def test_minimal(self):
        cfg = parse_config('{"chart": {"kind": "vinogradov", "d": 3, "p": 2}}')
        assert isinstance(cfg, Config)
        assert cfg.chart.d == 3 and cfg.chart.p == 2
        assert cfg.theta.element.euler_degree() == 3

    def test_polynomial_coefficients(self):
        cfg = parse_config(json.dumps({
            "chart": {"kind": "vinogradov", "d": 3, "p": 2},
            "theta": {"type": "vinogradov",
                      "beta": [{"indices": [1, 2, 3], "coeff": "3/2*x1^2 - x3"}]},
        }))
        beta = cfg.theta.twist[1]
        from gradedq import Poly
        from fractions import Fraction
        assert beta.terms[(1, 2, 3)] == \
            Poly.var(3, 1, 2) * Fraction(3, 2) - Poly.var(3, 3)

    def test_field_attributed_errors(self):
        cases = [
            ('{"chart": {"kind": "vinogradov", "d": 3}}', "chart.p"),
            ('{"chart": {"kind": "weil", "d": 3, "p": 2}}', "chart"),
            ('{"chart": {"kind": "vinogradov", "d": 3, "p": 2}, '
             '"theta": {"beta": [{"indices": [1, 2], "coeff": "1"}]}}',
             "theta.beta[0].indices"),
            ('{"chart": {"kind": "vinogradov", "d": 3, "p": 2}, '
             '"theta": {"beta": [{"indices": [1, 2, 3], "coeff": "x9"}]}}',
             "theta.beta[0].coeff"),
            ('{"chart": {"kind": "vinogradov", "d": 3, "p": 2}, '
             '"sections": {"A": {"v": ["1"]}}}', "sections.A.v"),
            ('{"chart": {"kind": "vinogradov", "d": 3, "p": 2}, '
             '"matrices": {"g": [["1", "oops"]]}}', "matrices.g[0][1]"),
            ('not json', "line 1"),
        ]
        for text, location in cases:
            with pytest.raises(ConfigError) as err:
                parse_config(text)
            assert location in str(err.value)

    def test_roundtrip_is_identity(self):
        def render(text):  # canonical text form of a config document
            return json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"

        for path in (GOLDEN_PASS, GOLDEN_FAIL, M5):
            text = pathlib.Path(path).read_text()
            cfg = parse_config(text)
            rendered = render(text)
            cfg2 = parse_config(rendered)
            assert render(rendered) == rendered
            assert cfg2.chart == cfg.chart
            assert cfg2.theta.element == cfg.theta.element
            assert cfg2.sections == cfg.sections

    def test_m5_sections(self):
        cfg = parse_config(pathlib.Path(M5).read_text())
        assert cfg.sections["B"].sigma is not None
        assert cfg.chart.kind == "m5"


# JSON-ish documents: any JSON value, and the golden configs with one to
# three fields replaced, so that the rest stays valid and parsing reaches
# every field's own check
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats()
    | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["chart", "kind", "d", "p", "theta", "beta", "v", "lambda",
                         "indices", "coeff"]) | st.text(max_size=4), inner, max_size=4),
    max_leaves=12)
FIELD_VALUES = JSON_VALUES | st.integers(-2, 140) | st.just(10**8) \
    | st.lists(st.integers(-1, 9), max_size=4) \
    | st.sampled_from(["vinogradov", "m5", "-3/2", "x2^2-1/3*x1", "(1+x1)^3", "1/0",
                       "x9", "x1^1001", "(1+x1+x2)^400", "2/3", "1e5"]) \
    | st.text(alphabet="x0123456789+-*/^(). ", max_size=12)


def _paths(node, path=()):
    """Every path into a JSON document, the root's () first."""
    yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def mutated_configs(draw):
    doc = json.loads(pathlib.Path(draw(st.sampled_from([GOLDEN_PASS, GOLDEN_FAIL, M5])))
                     .read_text())
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))[1:]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = draw(FIELD_VALUES)
    return doc


class TestConfigFuzz:
    @settings(max_examples=400, deadline=None)
    @given(doc=mutated_configs() | JSON_VALUES)
    def test_documents_raise_only_config_error(self, doc):
        try:
            parse_config(json.dumps(doc))
        except ConfigError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(text=st.text(max_size=40))
    def test_text_raises_only_config_error(self, text):
        try:
            parse_config(text)
        except ConfigError:
            pass


# ---------------------------------------------------------------------
# exit-code contract on the three golden configs
# ---------------------------------------------------------------------

class TestExitCodes:
    def test_pass_config(self):
        out = run_cli("check-master", GOLDEN_PASS)
        assert out.returncode == 0
        assert "master equation: PASS" in out.stdout

    def test_fail_config(self):
        out = run_cli("check-master", GOLDEN_FAIL)
        assert out.returncode == 1
        assert "FAIL" in out.stdout and "witness" in out.stdout

    def test_error_config(self):
        out = run_cli("check-master", GOLDEN_ERROR)
        assert out.returncode == 2
        assert "theta.beta[0].indices" in out.stderr

    def test_missing_file(self):
        out = run_cli("check-master", str(DATA / "nope.json"))
        assert out.returncode == 2

    def test_unknown_command(self):
        out = run_cli("frobnicate", GOLDEN_PASS)
        assert out.returncode == 2

    def test_in_process_entry_point(self):
        assert main(["check-master", GOLDEN_PASS]) == 0
        assert main(["check-master", GOLDEN_FAIL]) == 1
        assert main(["check-master", GOLDEN_ERROR]) == 2


# ---------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------

class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("check-master", GOLDEN_PASS, "--json"),
        ("q-square", GOLDEN_PASS, "--json", "--seed", "5"),
        ("axioms", GOLDEN_PASS, "--suite", "courant", "--trials", "5",
         "--seed", "3", "--json"),
        ("axioms", GOLDEN_FAIL, "--suite", "leibniz", "--trials", "5",
         "--seed", "3", "--json"),
        ("bracket", GOLDEN_PASS, "--A", "A", "--B", "B", "--json"),
        ("rank", M5, "--json"),
        ("classify", GOLDEN_PASS, "--json"),
        ("genmetric", "build", GOLDEN_PASS, "--json"),
    ], ids=lambda a: a[0] if isinstance(a, tuple) else a)
    def test_byte_identical_reports(self, argv):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode
        json.loads(first.stdout)  # valid machine-readable report


# ---------------------------------------------------------------------
# command behaviour
# ---------------------------------------------------------------------

class TestCommands:
    def test_q_square_report_fields(self):
        doc = json.loads(run_cli("q-square", GOLDEN_PASS, "--json").stdout)
        assert doc["status"] == "PASS"
        assert all({"check", "status", "witnesses"} <= set(c) for c in doc["checks"])
        assert doc["seed"] == 7  # from the config harness

    def test_seed_fallback_order(self):
        flag = json.loads(run_cli("q-square", GOLDEN_PASS, "--json",
                                  "--seed", "99").stdout)
        assert flag["seed"] == 99
        env = json.loads(run_cli("q-square", GOLDEN_ERROR.replace(
            "golden_error", "m5"), "--json",
            env_extra={"GB_SEED": "123"}).stdout)
        # config m5.json pins seed 1; config wins over the environment
        assert env["seed"] == 1

    def test_gb_seed_env(self, tmp_path):
        cfg = json.dumps({"chart": {"kind": "vinogradov", "d": 3, "p": 2}})
        path = tmp_path / "noseed.json"
        path.write_text(cfg)
        doc = json.loads(run_cli("q-square", str(path), "--json",
                                 env_extra={"GB_SEED": "123"}).stdout)
        assert doc["seed"] == 123

    def test_bracket_form_notation(self):
        out = run_cli("bracket", GOLDEN_PASS, "--A", "A", "--B", "B")
        assert out.returncode == 0
        assert out.stdout.startswith("L_A B = v=(")
        assert "lambda=" in out.stdout

    def test_bracket_unknown_section(self):
        out = run_cli("bracket", GOLDEN_PASS, "--A", "A", "--B", "Z")
        assert out.returncode == 2
        assert "sections.Z" in out.stderr

    def test_rank_m5_table(self):
        out = run_cli("rank", M5)
        assert out.returncode == 0
        assert "n=5: 27" in out.stdout

    def test_rank_single_degree_lists_basis(self):
        out = run_cli("rank", GOLDEN_PASS, "--n", "1")
        assert "n=1: 6" in out.stdout
        assert "psi1" in out.stdout and "chi3" in out.stdout

    def test_classify_pass_and_fail(self):
        ok = run_cli("classify", GOLDEN_PASS)
        assert ok.returncode == 0 and "primitive of beta" in ok.stdout
        bad = run_cli("classify", GOLDEN_FAIL)
        assert bad.returncode == 1 and "FAIL" in bad.stdout

    def test_classify_m5_reports_bianchi(self):
        out = run_cli("classify", M5)
        assert out.returncode == 0
        assert "Bianchi identity" in out.stdout

    def test_axioms_leibniz_negative_control(self):
        out = run_cli("axioms", GOLDEN_FAIL, "--suite", "leibniz",
                      "--trials", "5", "--seed", "0")
        assert out.returncode == 1
        assert "witness" in out.stdout

    def test_results_longer_than_the_int_digit_limit_print_exactly(self, capsys,
                                                                  tmp_path):
        # each literal is parsed under Python's 4,300-digit int limit, but
        # c has 9,000 bits and L_A B = -c^3 dx3 has 8,128 digits
        c = "*".join(["(2^1000)"] * 9)
        path = tmp_path / "long.json"
        path.write_text(json.dumps({
            "chart": {"kind": "vinogradov", "d": 3, "p": 2},
            "theta": {"type": "vinogradov",
                      "beta": [{"indices": [1, 2, 3], "coeff": c}]},
            "sections": {"A": {"v": [c, "0", "0"]}, "B": {"v": ["0", c, "0"]}}}))
        with decimal.localcontext() as ctx:  # Decimal prints with no digit limit
            ctx.prec = 10_000
            coeff = str(-decimal.Decimal(2) ** 27000)
        assert len(coeff) == 8129
        limit = sys.get_int_max_str_digits()
        assert main(["bracket", str(path), "--A", "A", "--B", "B", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"] == {"v": ["0", "0", "0"],
                                 "lambda": [{"indices": [3], "coeff": coeff}]}
        assert main(["bracket", str(path), "--A", "A", "--B", "B"]) == 0
        assert capsys.readouterr().out == f"L_A B = v=(0, 0, 0), lambda={coeff}*dx3\n"
        # the limit is lifted only while the command runs
        assert sys.get_int_max_str_digits() == limit

    def test_genmetric_build_extract_consistency(self, capsys, tmp_path):
        assert main(["genmetric", "build", GOLDEN_PASS, "--json"]) == 0
        cfg = json.loads(pathlib.Path(GOLDEN_PASS).read_text())
        cfg["matrices"]["H"] = json.loads(capsys.readouterr().out)["H"]
        path = tmp_path / "extract.json"
        path.write_text(json.dumps(cfg))
        assert main(["genmetric", "extract", str(path), "--json"]) == 0
        back = json.loads(capsys.readouterr().out)
        assert back["g"] == cfg["matrices"]["g"]
        assert back["b"] == cfg["matrices"]["b"]

    def test_genmetric_act_block_swap(self):
        doc = json.loads(run_cli("genmetric", "act", GOLDEN_PASS,
                                 "--json").stdout)
        # O is the full block swap; the result is again of metric form
        assert "g" in doc and "b" in doc

    def test_genmetric_act_reports_h_alone_without_metric_form(self, capsys, tmp_path):
        # g - b g^-1 b = 0, so the block swap moves a zero block to the
        # lower right and H' = O^t H O has no (g, b)
        path = tmp_path / "act.json"
        path.write_text(json.dumps({
            "chart": {"kind": "vinogradov", "d": 2, "p": 2},
            "matrices": {"g": [[1, 0], [0, -1]], "b": [[0, 1], [-1, 0]],
                         "O": [[0, 0, 1, 0], [0, 0, 0, 1],
                               [1, 0, 0, 0], [0, 1, 0, 0]]}}))
        assert main(["genmetric", "act", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["H"] and "g" not in doc and "b" not in doc

    def test_classify_m5_primitive_of_f4(self, capsys, tmp_path):
        path = tmp_path / "f4.json"
        path.write_text(json.dumps({
            "chart": {"kind": "m5", "d": 6},
            "theta": {"type": "m5", "F4": [{"indices": [1, 2, 3, 4], "coeff": "1"}],
                      "F7": []}}))
        assert main(["classify", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "PASS" and list(doc["primitives"]) == ["F4"]

    def test_q_square_zero_samples_still_probes_generators(self):
        doc = json.loads(run_cli("q-square", GOLDEN_PASS, "--samples", "0",
                                 "--json").stdout)
        assert doc["exit_code"] == 0 and doc["checks"]

    def test_max_coeff_degree_flag_accepted(self):
        out = run_cli("axioms", GOLDEN_PASS, "--suite", "leibniz",
                      "--trials", "3", "--seed", "2", "--max-coeff-degree", "1")
        assert out.returncode == 0


# ---------------------------------------------------------------------
# inputs that must exit 2 and name the field
# ---------------------------------------------------------------------

# the diagnostic for a matrix cell that is not plain ASCII digits, before the cell
CELL_ERROR = ("expected an integer, a/b or a decimal in ASCII digits without "
              "exponent, got ")


class JsonLiteral(str):
    """A field value that the config file holds as this raw JSON text, such
    as `NaN` or `1e400`, which `json.dumps` cannot write from a float."""


def config_with(path, value, base=GOLDEN_PASS):
    """The config at `base` with the field at `path` set to `value`."""
    cfg = json.loads(pathlib.Path(base).read_text())
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return cfg


class TestInputErrors:
    @pytest.mark.parametrize("command, flags, field", [
        ("axioms", ("--suite", "courant", "--trials", "0"), "--trials"),
        ("axioms", ("--suite", "leibniz", "--trials", "-3"), "--trials"),
        ("q-square", ("--samples", "-2"), "--samples"),
        ("axioms", ("--suite", "courant", "--trials", "1", "--max-coeff-degree", "-1"),
         "--max-coeff-degree"),
        ("axioms", ("--suite", "leibniz", "--trials", "1", "--max-coeff-degree", "-1"),
         "--max-coeff-degree"),
        ("q-square", ("--max-coeff-degree", "-2"), "--max-coeff-degree"),
        # random coefficients of higher degree could overflow the packed
        # exponent field in a product: an input error, not an internal one
        ("axioms", ("--suite", "leibniz", "--trials", "1", "--max-coeff-degree", "60000"),
         "--max-coeff-degree"),
        ("q-square", ("--max-coeff-degree", "1001"), "--max-coeff-degree"),
        # counts over the cap are rejected before any trial runs
        pytest.param("axioms", ("--suite", "courant", "--trials", "10001"), "--trials",
                     id="trials-over-10000"),
        pytest.param("q-square", ("--samples", "10001"), "--samples",
                     id="samples-over-10000"),
    ])
    def test_empty_or_negative_counts(self, capsys, command, flags, field):
        code = main([command, GOLDEN_PASS, *flags, "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2 and doc["status"] == "ERROR"
        assert doc["error"].startswith(field + ":")

    @pytest.mark.parametrize("path, value, error", [
        (("harness", "trials"), 0, "harness.trials: must be at least 1, got 0"),
        (("theta", "beta", 0, "coeff"), "1/0",
         "theta.beta[0].coeff: zero denominator at position 0"),
        # JSON booleans are not integers
        (("chart", "d"), True, "chart.d: expected int, got bool"),
        (("chart", "p"), True, "chart.p: expected int, got bool"),
        (("harness", "trials"), True, "harness.trials: expected int, got bool"),
        (("harness", "seed"), True, "harness.seed: expected int, got bool"),
        (("harness", "max_coeff_degree"), True,
         "harness.max_coeff_degree: expected int, got bool"),
        (("theta", "beta", 0, "indices", 0), True,
         "theta.beta[0].indices: indices must be integers"),
        (("harness", "max_coeff_degree"), -1,
         "harness.max_coeff_degree: must be at least 0, got -1"),
        pytest.param(("theta", "beta", 0, "coeff"), "(" * 3000 + "1" + ")" * 3000,
                     "theta.beta[0].coeff: parentheses nested deeper than 100 at "
                     "position 100", id="nested-3000-deep"),
        # str.isdigit() accepts superscripts, int() does not
        pytest.param(("sections", "A", "v", 0), "x\u00b2",
                     "sections.A.v[0]: bad variable at position 0",
                     id="superscript-digit"),
        pytest.param(("sections", "A", "v", 0), "1" * 5000,
                     "sections.A.v[0]: integer too long at position 0",
                     id="coeff-5000-digits"),
        # Fraction() would expand 10**20000000 (about 30 s)
        pytest.param(("matrices", "g", 0, 0), "1e20000000",
                     f"matrices.g[0][0]: {CELL_ERROR}'1e20000000'",
                     id="matrix-exponent"),
        pytest.param(("matrices", "g", 1, 2), "2E3", f"matrices.g[1][2]: {CELL_ERROR}'2E3'",
                     id="matrix-exponent-upper"),
        # Fraction() takes these on some Pythons; a cell's digits are ASCII
        pytest.param(("matrices", "g", 0, 0), "1_000",
                     f"matrices.g[0][0]: {CELL_ERROR}'1_000'", id="matrix-underscore"),
        pytest.param(("matrices", "g", 1, 1), "1_0/3",
                     f"matrices.g[1][1]: {CELL_ERROR}'1_0/3'",
                     id="matrix-underscore-ratio"),
        pytest.param(("matrices", "g", 2, 0), "\u0663",
                     f"matrices.g[2][0]: {CELL_ERROR}'\u0663'",
                     id="matrix-arabic-indic-digit"),
        # a cell's diagnostic names its fault, in the words of the
        # polynomial grammar and of the string cells
        pytest.param(("matrices", "g", 0, 0), "1/0", "matrices.g[0][0]: zero denominator",
                     id="matrix-zero-denominator"),
        pytest.param(("matrices", "g", 0, 1), True, f"matrices.g[0][1]: {CELL_ERROR}True",
                     id="matrix-bool"),
        # a JSON number is read only when finite; json.loads takes NaN and
        # the infinities, and reads 1e400 as inf
        pytest.param(("matrices", "g", 0, 0), JsonLiteral("NaN"),
                     "matrices.g[0][0]: not a finite number", id="matrix-nan"),
        pytest.param(("matrices", "g", 1, 1), JsonLiteral("Infinity"),
                     "matrices.g[1][1]: not a finite number", id="matrix-infinity"),
        pytest.param(("matrices", "g", 0, 1), JsonLiteral("-Infinity"),
                     "matrices.g[0][1]: not a finite number", id="matrix-minus-infinity"),
        pytest.param(("matrices", "g", 2, 1), JsonLiteral("1e400"),
                     "matrices.g[2][1]: not a finite number", id="matrix-1e400"),
        # and a nonzero literal that float() reads as 0 is refused, not read
        # as 0; its exact value is not built (10**20000000 takes about 30 s)
        pytest.param(("matrices", "g", 0, 0), JsonLiteral("1e-400"),
                     "matrices.g[0][0]: a nonzero number below the float range",
                     id="matrix-1e-400"),
        pytest.param(("matrices", "g", 1, 2), JsonLiteral("-2.5E-400"),
                     "matrices.g[1][2]: a nonzero number below the float range",
                     id="matrix-minus-2.5E-400"),
        pytest.param(("matrices", "g", 2, 2), JsonLiteral("0." + "0" * 400 + "1"),
                     "matrices.g[2][2]: a nonzero number below the float range",
                     id="matrix-400-zero-decimals"),
        pytest.param(("matrices", "g", 0, 1), JsonLiteral("1e-20000000"),
                     "matrices.g[0][1]: a nonzero number below the float range",
                     id="matrix-1e-20000000"),
        pytest.param(("matrices", "g", 1, 0), None, f"matrices.g[1][0]: {CELL_ERROR}None",
                     id="matrix-null"),
        pytest.param(("matrices", "g", 1, 1), [1], f"matrices.g[1][1]: {CELL_ERROR}[1]",
                     id="matrix-array"),
        pytest.param(("matrices", "g", 2, 2), {"n": 1},
                     f"matrices.g[2][2]: {CELL_ERROR}{{'n': 1}}", id="matrix-object"),
        # powers are bounded before they are expanded
        pytest.param(("sections", "A", "v", 0), "x1^1001",
                     "sections.A.v[0]: exponent 1001 exceeds 1000 at position 3",
                     id="exponent-over-1000"),
        # an exponent is an integer literal: "4/2" is refused, not read as 2
        pytest.param(("theta", "beta", 0, "coeff"), "x1^4/2",
                     "theta.beta[0].coeff: exponent must be a non-negative integer",
                     id="exponent-ratio"),
        pytest.param(("sections", "A", "v", 0), "2^4/2",
                     "sections.A.v[0]: exponent must be a non-negative integer",
                     id="exponent-ratio-of-number"),
        pytest.param(("theta", "beta", 0, "coeff"), "(1+x1+x2)^400",
                     "theta.beta[0].coeff: power expands to more than 10000 terms at "
                     "position 10", id="power-over-10000-terms"),
        pytest.param(("theta", "beta", 0, "coeff"), "(1+x1+x2)^100*(1+x1+x2)^100",
                     "theta.beta[0].coeff: product expands to more than 10000 terms at "
                     "position 13", id="product-over-10000-terms"),
        pytest.param(("sections", "A", "v", 0), "(x1^1000)^1000",
                     "sections.A.v[0]: exponent 1000000 of x1 exceeds 1000 at position 10",
                     id="power-exponent-over-1000"),
        pytest.param(("sections", "A", "v", 0), "x1^600*x1^600",
                     "sections.A.v[0]: exponent 1200 of x1 exceeds 1000 at position 6",
                     id="product-exponent-over-1000"),
        pytest.param(("harness", "max_coeff_degree"), 1001,
                     "harness.max_coeff_degree: must be at most 1000, got 1001",
                     id="max-coeff-degree-over-1000"),
        pytest.param(("harness", "trials"), 10001,
                     "harness.trials: must be at most 10000, got 10001",
                     id="trials-over-10000"),
        pytest.param(("chart", "d"), 129, "chart.d: must be at most 128, got 129",
                     id="d-over-128"),
        pytest.param(("chart", "d"), 0, "chart.d: must be at least 1, got 0", id="d-zero"),
        pytest.param(("chart", "p"), 13, "chart.p: must be at most 12, got 13",
                     id="p-over-12"),
        pytest.param(("chart", "p"), 1, "chart.p: must be at least 2, got 1", id="p-one"),
        pytest.param(("sections", "A", "v", 0), "((9^999)^999)^999",
                     "sections.A.v[0]: coefficients may exceed 10000 bits at position 9",
                     id="coefficient-over-10000-bits"),
        pytest.param(("theta", "type"), "general",
                     "theta.type: expected 'vinogradov' or 'm5', got 'general'",
                     id="theta-type-unknown"),
        pytest.param(("theta", "type"), "m5",
                     "theta: m5 hamiltonian needs an m5 chart, got vinogradov",
                     id="theta-m5-on-vinogradov"),
        # the type is checked before any twist form of the other kind is read
        pytest.param(("theta",), {"type": "m5", "F4": [{"indices": [1, 2, 3, 4],
                                                        "coeff": "1"}]},
                     "theta: m5 hamiltonian needs an m5 chart, got vinogradov",
                     id="theta-m5-with-F4-on-vinogradov"),
        # a field no layout of the chart names is refused, not read as absent
        pytest.param(("sections", "A", "sigma"), [],
                     "sections.A.sigma: unknown field; the known fields are v, lambda",
                     id="sigma-on-vinogradov"),
        pytest.param(("theta", "betta"), [{"indices": [1, 2, 3], "coeff": "x3"}],
                     "theta.betta: unknown field; the known fields are type, beta",
                     id="theta-misspelt-beta"),
        pytest.param(("sections", "A", "lamda"), [{"indices": [2], "coeff": "1"}],
                     "sections.A.lamda: unknown field; the known fields are v, lambda",
                     id="section-misspelt-lambda"),
        pytest.param(("theta",), {"type": "vinogradov", "F4": [{"indices": [1, 2, 3, 4],
                                                                "coeff": "1"}]},
                     "theta.F4: unknown field; the known fields are type, beta",
                     id="F4-in-vinogradov-theta"),
        pytest.param(("matrices", "g"), [], "matrices.g: expected 1 to 16 row arrays",
                     id="matrix-empty"),
        pytest.param(("matrices", "g"), [["1", "0"], ["1"]],
                     "matrices.g: rows have unequal lengths", id="matrix-rows-unequal"),
    ])
    def test_bad_config_field(self, capsys, tmp_path, path, value, error):
        cfg = tmp_path / "cfg.json"
        text = json.dumps(config_with(path, value))
        if isinstance(value, JsonLiteral):
            text = text.replace(json.dumps(value), value)
        cfg.write_text(text)
        code = main(["axioms", str(cfg), "--suite", "leibniz", "--trials", "1",
                     "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2 and doc["status"] == "ERROR"
        assert doc["error"] == error

    @pytest.mark.parametrize("base, theta, error", [
        (GOLDEN_PASS, {"type": "m5", "F4": [{"indices": [1, 2, 3, 4], "coeff": "1"}]},
         "theta: m5 hamiltonian needs an m5 chart, got vinogradov"),
        (M5, {"type": "vinogradov", "beta": [{"indices": [1, 2, 3], "coeff": "1"}]},
         "theta: vinogradov hamiltonian needs a vinogradov chart, got m5"),
    ], ids=["m5-on-vinogradov", "vinogradov-on-m5"])
    def test_theta_type_before_its_forms(self, capsys, tmp_path, base, theta, error):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config_with(("theta",), theta, base)))
        assert main(["check-master", str(cfg), "--json"]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == error

    @pytest.mark.parametrize("base, error", [
        (GOLDEN_PASS, "sections.A: sections are objects with 'v', 'lambda'"),
        (M5, "sections.A: sections are objects with 'v', 'lambda', 'sigma'"),
    ], ids=["vinogradov", "m5"])
    def test_non_object_section_names_its_chart_fields(self, capsys, tmp_path,
                                                       base, error):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config_with(("sections", "A"), [], base)))
        assert main(["check-master", str(cfg), "--json"]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == error

    @pytest.mark.parametrize("action, matrices, error", [
        ("build", {"g": [[1, 2], [3, 4]], "b": [[0, 0], [0, 0]]},
         "matrices.g: g must be symmetric"),
        ("build", {"g": [[1, 0], [0, 1]], "b": [[0, 1], [1, 0]]},
         "matrices.b: b must be antisymmetric"),
        ("build", {"g": [[1, 0], [0, 1]], "b": [[0]]},
         "matrices.b: g and b must be square of the same size"),
        ("act", {"g": [[1, 0], [0, 1]], "b": [[0, 0], [0, 0]], "O": [[0, 1], [1, 0]]},
         "matrices.O: matrix dimensions do not match"),
        ("extract", {"H": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
         "matrices.H: matrix dimensions do not match"),
        ("extract", {"H": [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
         "matrices.H: generalised metric must satisfy H eta H = eta"),
        # the caps on a matrix are checked while the config is parsed
        ("build", {"g": [[int(i == j) for j in range(17)] for i in range(17)]},
         "matrices.g: expected 1 to 16 row arrays"),
        ("build", {"g": [[1] * 17]},
         "matrices.g[0]: expected a row array of at most 16 cells"),
        ("act", {"O": [[1, 0], [0, 2 ** 64]]},
         "matrices.O[1][1]: over the common denominator, the entry exceeds 64 bits"),
        # the common denominator 3 * 2^62 has 64 bits, -2 over it 65
        ("extract", {"H": [["1/3", "-2"], [f"5/{2 ** 62}", "1"]]},
         "matrices.H[0][1]: over the common denominator, the entry exceeds 64 bits"),
        ("build", {"b": [["0", f"1/{2 ** 40}"], [f"-1/{3 ** 26}", "0"]]},
         "matrices.b[1][0]: the common denominator exceeds 64 bits"),
        # a 3,000-digit cell is under the int-parse limit, over the entry cap
        ("build", {"g": [["9" * 3000, "0"], ["0", "1"]],
                   "b": [["0", "9" * 3000], ["-" + "9" * 3000, "0"]]},
         "matrices.g[0][0]: over the common denominator, the entry exceeds 64 bits"),
    ], ids=["build-g", "build-b", "build-b-size", "act", "extract-size", "extract-eta",
            "cap-rows", "cap-columns", "cap-entry", "cap-entry-over-denominator",
            "cap-denominator", "cap-cell-3000-digits"])
    def test_genmetric_names_the_matrix(self, capsys, tmp_path, action, matrices, error):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config_with(("matrices",), matrices)))
        assert main(["genmetric", action, str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert main(["genmetric", action, str(cfg), "--json"]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == error

    @pytest.mark.parametrize("content, error", [
        (b"\xff\xfe", "<root>: config is not UTF-8 text: invalid start byte at byte 0"),
        (None, "No such file or directory"),
    ], ids=["not-utf8", "missing"])
    def test_unreadable_config(self, capsys, tmp_path, content, error):
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_bytes(content)
        assert main(["check-master", str(cfg)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: ") and error in out.err
        assert main(["check-master", str(cfg), "--json"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "check-master" and doc["status"] == "ERROR"
        assert error in doc["error"]

    def test_matrix_cells_without_exponent_are_legal(self):
        cfg = config_with(("matrices", "g"), [["2", "-3/4", "0.5"], [1, 0.25, " 7 "]])
        assert parse_config(json.dumps(cfg)).matrices["g"] == (
            (2, Fraction(-3, 4), Fraction(1, 2)), (1, Fraction(1, 4), 7))
        # every spelling is read to the value Fraction() gives it, as a Fraction
        cells = ["+2", " -3/6 ", "0.50", ".5", "1.", "007", 0.25, 7]
        row = parse_config(json.dumps(config_with(("matrices", "g"), [cells])))
        assert [(type(v), v) for v in row.matrices["g"][0]] == [
            (Fraction, Fraction(str(cell))) for cell in cells]

    def test_matrix_number_cells_keep_their_values(self):
        # zero literals with an exponent below the float range read as 0
        cells = ["0e-400", "0.0", "-0.0", "0.5e-3", "-0E-999"]
        cfg = json.dumps(config_with(("matrices", "g"), [[0] * len(cells)]))
        cfg = cfg.replace(", ".join(["0"] * len(cells)), ", ".join(cells))
        assert parse_config(cfg).matrices["g"] == ((0, 0, 0, Fraction(1, 2000), 0),)
        # the least float is exact, and refused by the denominator bound
        cfg = json.dumps(config_with(("matrices", "g"), [[1, 0], [0, 1]]))
        with pytest.raises(ConfigError, match=r"g\[0\]\[0\]: the common denominator"):
            parse_config(cfg.replace("[[1, 0]", "[[5e-324, 0]"))

    @pytest.mark.parametrize("base, path, indices", [
        (GOLDEN_PASS, ("theta", "beta"), [1, 2, 1]),
        (M5, ("theta", "F4"), [1, 2, 3, 2]),
        (M5, ("sections", "A", "lambda"), [4, 4]),
    ], ids=["beta", "F4", "lambda"])
    def test_repeated_form_index(self, capsys, tmp_path, base, path, indices):
        """A repeated index is refused, not dropped as a zero term."""
        field = ".".join(path) + "[1].indices"
        terms = [{"indices": list(range(1, len(indices) + 1)), "coeff": "1"},
                 {"indices": indices, "coeff": "x1"}]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config_with(path, terms, base)))
        assert main(["check-master", str(cfg), "--json"]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == (
            f"{field}: indices must be distinct")

    @pytest.mark.parametrize("indices, sign", [([3, 1, 2], 1), ([2, 1, 3], -1)])
    def test_form_indices_in_any_order(self, indices, sign):
        beta = [{"indices": indices, "coeff": "x2"}]
        got = parse_config(json.dumps(config_with(("theta", "beta"), beta)))
        want = parse_config(json.dumps(config_with(
            ("theta", "beta"), [{"indices": [1, 2, 3], "coeff": f"{sign}*x2"}])))
        assert got.theta.element == want.theta.element

    def test_matrices_at_the_caps_are_legal(self, capsys, tmp_path):
        n, top = config.MAX_MATRIX_SIDE, 2 ** config.MAX_ENTRY_BITS - 1
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = top if i == 0 else 1
        b = [["0"] * n for _ in range(n)]
        b[0][1], b[1][0] = f"{top}/{top - 2}", f"-{top}/{top - 2}"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config_with(("matrices",), {"g": g, "b": b})))
        assert main(["genmetric", "build", str(cfg), "--json"]) == 0
        H = json.loads(capsys.readouterr().out)["H"]
        assert len(H) == 2 * n and H[n][n] == f"1/{top}"

    @pytest.mark.parametrize("command", [["q-square"], ["axioms", "--suite", "courant"]])
    def test_gb_seed_past_the_int_digit_limit(self, capsys, monkeypatch, tmp_path,
                                              command):
        # GB_SEED is parsed before the digit limit is lifted for the output
        path = tmp_path / "noseed.json"
        path.write_text(json.dumps({"chart": {"kind": "vinogradov", "d": 3, "p": 2}}))
        monkeypatch.setenv("GB_SEED", "1" * 5000)
        assert main([command[0], str(path), *command[1:], "--json"]) == 2
        # the diagnostic echoes the first 32 characters and the length
        assert json.loads(capsys.readouterr().out) == {
            "command": command[0], "status": "ERROR",
            "error": "GB_SEED: not an integer: '" + "1" * 32 + "…' (5000 characters)"}
        # a short bad value is echoed whole, in text mode too
        monkeypatch.setenv("GB_SEED", "x" * 32)
        assert main([command[0], str(path), *command[1:]]) == 2
        assert capsys.readouterr().err == \
            "error: GB_SEED: not an integer: '" + "x" * 32 + "'\n"
        # a seed that --seed gives first leaves GB_SEED unread
        assert main([command[0], str(path), *command[1:], "--seed", "5", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 5

    def test_payload_ints_past_the_int_digit_limit_print(self, capsys, monkeypatch):
        big = 10 ** 5000
        monkeypatch.setitem(cli._HANDLERS, "check-master",
                            lambda config, args: ({"n": big}, "n", 0))
        assert main(["check-master", GOLDEN_PASS, "--json"]) == 0
        assert f'"n": 1{"0" * 5000}' in capsys.readouterr().out

    def test_json_integer_too_long(self, capsys, tmp_path):
        text = json.dumps(config_with(("harness", "seed"), 0)).replace(
            '"seed": 0', '"seed": ' + "1" * 5000)
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value) == "<root>: JSON integer too long"
        cfg = tmp_path / "long.json"
        cfg.write_text(text)
        assert main(["check-master", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: <root>: JSON integer too long\n"

    def test_counts_at_the_cap_are_legal(self, monkeypatch):
        # the suites are stubbed: only the bounds run, not 10,000 trials
        seen = {}

        def suite(theta, **kw):
            seen.update(kw)
            return cli.SuiteReport("stub", seed=0, trials=0)
        # the axioms handler imports the suite at call time
        monkeypatch.setattr("gradedq.algebroid.verify_courant", suite)
        monkeypatch.setattr(cli, "q_square_check", suite)
        assert main(["axioms", GOLDEN_PASS, "--suite", "courant", "--trials", "10000"]) == 0
        assert seen["trials"] == 10000
        assert main(["q-square", GOLDEN_PASS, "--samples", "10000"]) == 0
        assert seen["samples"] == 10000
        cfg = config_with(("harness", "trials"), 10000)
        assert parse_config(json.dumps(cfg)).trials == 10000

    def test_chart_d_cap(self, capsys, monkeypatch, tmp_path):
        # the cap is checked before any chart, hamiltonian or suite is built
        def no_chart(*args):
            raise AssertionError("an oversized chart was built")
        with monkeypatch.context() as patch:
            patch.setattr(config, "make_chart", no_chart)
            cfg = tmp_path / "big.json"
            cfg.write_text(json.dumps({"chart": {"kind": "vinogradov", "d": 1000, "p": 2}}))
            assert main(["q-square", str(cfg)]) == 2
            assert capsys.readouterr().err == \
                f"error: chart.d: must be at most {config.MAX_D}, got 1000\n"
            doc = config_with(("chart",), {"kind": "m5", "d": config.MAX_D + 1})
            with pytest.raises(ConfigError, match="^chart.d: must be at most 128, got 129$"):
                parse_config(json.dumps(doc))
        doc = {"chart": {"kind": "vinogradov", "d": config.MAX_D, "p": 2}}
        assert parse_config(json.dumps(doc)).chart.d == 128

    def test_chart_p_cap(self, capsys, monkeypatch, tmp_path):
        # the cap is checked before any chart is built, and only when p is given
        def no_chart(*args):
            raise AssertionError("an oversized chart was built")
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps({"chart": {"kind": "vinogradov", "d": 3, "p": 10**8}}))
        with monkeypatch.context() as patch:
            patch.setattr(config, "make_chart", no_chart)
            for command in ("q-square", "rank"):
                assert main([command, str(cfg)]) == 2
                assert capsys.readouterr().err == \
                    f"error: chart.p: must be at most {config.MAX_P}, got 100000000\n"
        # m5 keeps its own diagnostic for any other p under the cap
        with pytest.raises(ConfigError, match="^chart: m5 chart has fixed symplectic "):
            parse_config(json.dumps({"chart": {"kind": "m5", "d": 3, "p": 7}}))
        assert parse_config(json.dumps({"chart": {"kind": "m5", "d": 3}})).chart.p == 6

    def test_chart_caps_keep_probe_counts_in_range(self):
        # q-square samples from range(count), whose len() takes at most sys.maxsize
        charts = [make_chart("vinogradov", config.MAX_D, p)
                  for p in range(2, config.MAX_P + 1)] + [make_chart("m5", config.MAX_D)]
        for chart in charts:
            for n in range(chart.p + 2):
                assert len(range(monomial_count(chart, n))) <= sys.maxsize
        top = make_chart("vinogradov", config.MAX_D, config.MAX_P + 2)
        assert monomial_count(top, config.MAX_P + 3) > sys.maxsize

    @pytest.mark.parametrize("chart", [
        {"kind": "m5", "d": 64}, {"kind": "m5", "d": config.MAX_D},
        {"kind": "vinogradov", "d": 73, "p": 2},
        {"kind": "vinogradov", "d": config.MAX_D, "p": 2},
        {"kind": "vinogradov", "d": config.MAX_D, "p": config.MAX_P}],
        ids=lambda c: "-".join(map(str, c.values())))
    def test_q_square_lists_no_basis(self, capsys, monkeypatch, tmp_path, chart):
        # each probe monomial is unranked from a count, whatever the basis size
        def no_basis(*args):
            raise AssertionError("a monomial basis was listed")
        monkeypatch.setattr(element, "monomial_basis", no_basis)
        monkeypatch.setattr(cli, "monomial_basis", no_basis)
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps({"chart": chart}))
        start = time.perf_counter()
        assert main(["q-square", str(cfg), "--json"]) == 0
        assert time.perf_counter() - start < 5
        assert json.loads(capsys.readouterr().out)["status"] == "PASS"

    def test_rank_counts_and_caps_the_listed_basis(self, capsys, tmp_path):
        # rank reads counts; only --n lists a basis, at most MAX_BASIS monomials
        cfg = tmp_path / "m5.json"
        cfg.write_text(json.dumps({"chart": {"kind": "m5", "d": 64}}))
        start = time.perf_counter()
        assert main(["rank", str(cfg), "--json"]) == 0
        assert time.perf_counter() - start < 1
        assert [row["rank"] for row in json.loads(capsys.readouterr().out)["ranks"]] == \
            [1, 64, 2016, 41665, 635440, 7626592, 75020192]
        assert main(["rank", str(cfg), "--n", "6"]) == 2
        assert capsys.readouterr().err == ("error: --n: the degree-6 basis has 75020192 "
                                           f"monomials, more than {config.MAX_BASIS} to list\n")
        # the edge of the cap on m5 at degree 6 falls between d = 29 and d = 30
        assert monomial_count(make_chart("m5", 29), 6) == 479_544 <= config.MAX_BASIS
        cfg.write_text(json.dumps({"chart": {"kind": "m5", "d": 30}}))
        assert main(["rank", str(cfg), "--n", "6", "--json"]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == (
            f"--n: the degree-6 basis has 598765 monomials, more than {config.MAX_BASIS} "
            "to list")

    @pytest.mark.parametrize("path, n, bound", [
        (GOLDEN_PASS, -1, "at least 0, got -1"), (GOLDEN_PASS, 3, "at most 2, got 3"),
        (M5, -1, "at least 0, got -1"), (M5, 7, "at most 6, got 7")],
        ids=["v32-negative", "v32-over-p", "m5-negative", "m5-over-p"])
    def test_rank_n_is_bounded_by_p(self, capsys, path, n, bound):
        assert main(["rank", path, "--n", str(n)]) == 2
        assert capsys.readouterr().err == f"error: --n: must be {bound}\n"
        assert main(["rank", path, "--n", str(n), "--json"]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == f"--n: must be {bound}"

    def test_zero_max_coeff_degree_is_legal(self, capsys):
        code = main(["axioms", GOLDEN_PASS, "--suite", "leibniz", "--trials", "1",
                     "--max-coeff-degree", "0", "--json"])
        assert code == 0 and json.loads(capsys.readouterr().out)["status"] == "PASS"

    def test_json_nested_too_deep(self, capsys, tmp_path):
        depth = 100_000
        text = ('{"chart": {"kind": "vinogradov", "d": 3, "p": 2}, "extra": '
                + "[" * depth + "]" * depth + "}")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value) == "<root>: JSON nested too deep"
        cfg = tmp_path / "deep.json"
        cfg.write_text(text)
        assert main(["check-master", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: <root>: JSON nested too deep\n"

    # only q-square and axioms draw random data, so only they take the
    # harness flags; every other command rejects them as usage errors
    @pytest.mark.parametrize("flag, value", [
        pytest.param("--seed", "3", id="seed"),
        pytest.param("--max-coeff-degree", "99999", id="max-coeff-degree"),
    ])
    @pytest.mark.parametrize("head, tail", [
        pytest.param(["check-master"], [], id="check-master"),
        pytest.param(["bracket"], ["--A", "A", "--B", "B"], id="bracket"),
        pytest.param(["rank"], [], id="rank"),
        pytest.param(["classify"], [], id="classify"),
        pytest.param(["genmetric", "build"], [], id="genmetric-build"),
    ])
    def test_harness_flags_only_on_seeded_suites(self, capsys, head, tail, flag, value):
        assert main([*head, GOLDEN_PASS, *tail, flag, value, "--json"]) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and flag in err


# ---------------------------------------------------------------------
# a defect in the engine is an internal error, never a verdict
# ---------------------------------------------------------------------

class TestInternalError:
    @pytest.fixture
    def broken_handler(self, monkeypatch):
        def handler(config, args):
            raise KeyError("psi9")
        monkeypatch.setitem(cli._HANDLERS, "check-master", handler)

    def test_text_report(self, capsys, broken_handler):
        assert main(["check-master", GOLDEN_PASS]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "internal error: KeyError: 'psi9'\n"

    def test_exponent_overflow_is_internal(self, capsys, monkeypatch):
        from gradedq import Poly

        def handler(config, args):
            return Poly.var(3, 1, 2 ** 15 - 1) * Poly.var(3, 1)
        monkeypatch.setitem(cli._HANDLERS, "check-master", handler)
        assert main(["check-master", GOLDEN_PASS]) == 3
        assert capsys.readouterr().err.startswith("internal error: ExponentOverflowError:")

    def test_json_report(self, capsys, broken_handler):
        assert main(["check-master", GOLDEN_PASS, "--json"]) == 3
        out = capsys.readouterr()
        assert json.loads(out.out) == {"command": "check-master", "status": "INTERNAL",
                                       "error": "KeyError: 'psi9'"}
        assert out.err == "internal error: KeyError: 'psi9'\n"


class ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError.
    `fd` is the descriptor it reports, or None for a stream without one."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        if self.fd is None:
            raise io.UnsupportedOperation("fileno")
        return self.fd


class TestClosedStdout:
    """A reader that closes stdout early (`gradedq ... | head`) leaves the
    verdict's exit code and prints no traceback."""

    CASES = [(["rank", M5, "--n", "4", "--json"], 0),
             (["check-master", GOLDEN_FAIL], 1),
             (["check-master", GOLDEN_ERROR, "--json"], 2)]

    @pytest.mark.parametrize("argv, code", CASES)
    def test_exit_code_is_the_verdicts(self, tmp_path, monkeypatch, capsys, argv, code):
        path = tmp_path / "stdout"
        fd = os.open(path, os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
            assert main(argv) == code
            # the descriptor now writes to devnull, so the flush at exit is quiet
            os.write(fd, b"late")
        finally:
            os.close(fd)
        assert path.read_bytes() == b""
        assert capsys.readouterr().err == ""

    def test_stdout_without_a_descriptor(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdout", ClosedPipe(None))
        assert main(["check-master", GOLDEN_FAIL, "--json"]) == 1
        assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------
# a process imports only what its command runs
# ---------------------------------------------------------------------

class TestImportFootprint:
    DEFERRED = ("gradedq.algebroid", "gradedq.genmetric", "gradedq.randomgen")

    @staticmethod
    def loaded(script: str) -> set[str]:
        """The modules a fresh interpreter has loaded after `script`."""
        code = script + "\nimport sys\nprint(' '.join(sorted(sys.modules)))"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True)
        return set(out.stdout.split())

    def test_cli_import_loads_no_command_module(self):
        mods = self.loaded("import gradedq.cli")
        assert "gradedq.config" in mods
        assert "dataclasses" not in mods
        assert mods.isdisjoint(self.DEFERRED)

    @pytest.mark.parametrize("argv, needed", [
        (["check-master", GOLDEN_PASS], ()),
        (["classify", GOLDEN_PASS], ()),
        (["rank", GOLDEN_PASS, "--n", "1"], ()),
        (["q-square", GOLDEN_PASS, "--samples", "1"], ("gradedq.randomgen",)),
        (["axioms", GOLDEN_PASS, "--suite", "courant", "--trials", "1"],
         ("gradedq.algebroid", "gradedq.randomgen")),
        (["genmetric", "build", GOLDEN_PASS], ("gradedq.genmetric",)),
    ])
    def test_each_command_loads_what_it_runs(self, argv, needed):
        mods = self.loaded("import contextlib, io\nfrom gradedq.cli import main\n"
                           "with contextlib.redirect_stdout(io.StringIO()):\n"
                           f"    assert main({argv!r}) == 0")
        assert {m for m in self.DEFERRED if m in mods} == set(needed)

    def test_public_names_resolve(self):
        # in a fresh process, so every name goes through the lazy lookup
        self.loaded("import gradedq\n"
                    "assert all(getattr(gradedq, n) is not None for n in gradedq.__all__)\n"
                    "assert set(gradedq.__all__) <= set(vars(gradedq))\n"
                    "namespace = {}\n"
                    "exec('from gradedq import *', namespace)\n"
                    "assert set(gradedq.__all__) <= set(namespace)\n"
                    "assert getattr(gradedq, 'BACKEND', 'python') == 'python'\n"
                    "assert not hasattr(gradedq, 'no_such_name')\n"
                    "from gradedq.algebroid import SectionError, lambda_rank\n"
                    "from gradedq.genmetric import MatrixError")
