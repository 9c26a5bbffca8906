"""Command-line interface.

Every command reads one JSON config (chart, theta, sections, matrices,
harness) and writes a deterministic report, human text by default or a
machine-readable document with --json.  Exit codes: 0 all checks pass,
1 a verified violation, 2 input error, 3 internal error (a defect in
gradedq, never a verdict).  The seeded suites, q-square and axioms,
resolve their seed as --seed, then the config's harness.seed, then the
GB_SEED environment variable, then 0.

A process imports only what its command runs: the Dorfman bracket and
axiom suites (`algebroid`) and the generalised-metric toolkit
(`genmetric`) are imported inside the handlers that use them, so
check-master, q-square, rank and classify never load them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction

from .chart import ChartError
from .config import (MAX_BASIS, MAX_TRIALS, Config, ConfigError, MatrixError,
                     bounded, parse_config)
from .element import GradedElement, monomial_basis, monomial_count
from .forms import (DiffForm, FormError, SectionError, ext_d, poincare_primitive,
                    wedge)
from .npq import HamiltonianError, master_equation, q_square_check
from .poly import MAX_EXPONENT, PolyError
from .reports import CheckReport, SuiteReport, witnesses_of

PASS, FAIL, INPUT_ERROR, INTERNAL_ERROR = 0, 1, 2, 3

# OSError: the config file cannot be opened or read
_INPUT_ERRORS = (ConfigError, ChartError, FormError, SectionError,
                 HamiltonianError, PolyError, MatrixError, OSError)


# a bad GB_SEED is echoed in full up to this many characters, else cut
# there and followed by its length
_ECHO_CHARS = 32


def _resolve_seed(args, config: Config) -> int:
    if args.seed is not None:
        return args.seed
    if config.seed is not None:
        return config.seed
    env = os.environ.get("GB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            shown = repr(env) if len(env) <= _ECHO_CHARS else \
                f"{env[:_ECHO_CHARS] + '…'!r} ({len(env)} characters)"
            raise ConfigError("GB_SEED", f"not an integer: {shown}") from None
    return 0


def _resolve_max_degree(args, config: Config) -> int:
    if args.max_coeff_degree is not None:
        return bounded("--max-coeff-degree", args.max_coeff_degree, 0, MAX_EXPONENT)
    return config.max_coeff_degree


def _suite_result(command: str, suite: SuiteReport) -> tuple[dict, str, int]:
    payload = {"command": command, **suite.to_dict()}
    return payload, suite.render(), PASS if suite.passed else FAIL


def _form_terms(form: DiffForm) -> list[dict]:
    return [{"indices": list(idx), "coeff": str(form.terms[idx])}
            for idx in sorted(form.terms)]


def _put_matrix(payload: dict, lines: list[str], key: str, label: str, m):
    """Report matrix m as payload[key] and as a `label =` line with its rows."""
    rows = [[str(Fraction(c)) for c in row] for row in m]
    payload[key] = rows
    lines.append(f"{label} =")
    lines.extend("  [" + ", ".join(row) + "]" for row in rows)


def _named_matrix(config: Config, name: str):
    if name not in config.matrices:
        raise ConfigError(f"matrices.{name}", "missing required matrix")
    return config.matrices[name]


@contextmanager
def _blame(name: str):
    """Report a MatrixError as an error in the config's matrices.<name>."""
    try:
        yield
    except MatrixError as exc:
        raise ConfigError(f"matrices.{name}", str(exc)) from None


def _background(config: Config):
    from . import genmetric as gm
    g, b = _named_matrix(config, "g"), _named_matrix(config, "b")
    with _blame("g"):  # g is at fault if it fails even with b = 0
        gm.Background(g, gm.mat_zero(len(g)))
    with _blame("b"):
        return gm.Background(g, b)


@contextmanager
def _exact_digits():
    """Lift the interpreter-wide int-to-str digit limit for exact results;
    every input text is parsed before, so handlers and output parse none."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _named_section(config: Config, name: str) -> GradedElement:
    from .algebroid import encode_section
    if name not in config.sections:
        known = ", ".join(sorted(config.sections)) or "none defined"
        raise ConfigError(f"sections.{name}",
                          f"unknown section (available: {known})")
    return encode_section(config.chart, config.sections[name])


# ---------------------------------------------------------------------
# command handlers: each returns (json payload, human text, exit code)
# ---------------------------------------------------------------------

def cmd_check_master(config: Config, args) -> tuple[dict, str, int]:
    bracket, ok = master_equation(config.theta)
    report = CheckReport("master equation", passed=ok,
                         witnesses=[] if ok else witnesses_of(bracket))
    payload = {"command": "check-master", "status": report.status,
               "checks": [report.to_dict()]}
    return payload, report.render(), PASS if ok else FAIL


def cmd_q_square(config: Config, args) -> tuple[dict, str, int]:
    suite = q_square_check(config.theta,
                           samples=bounded("--samples", args.samples, 0, MAX_TRIALS),
                           seed=args.seed,
                           max_degree=_resolve_max_degree(args, config))
    return _suite_result("q-square", suite)


def cmd_bracket(config: Config, args) -> tuple[dict, str, int]:
    from .algebroid import decode_section, dorfman
    chart = config.chart
    A = _named_section(config, args.A)
    B = _named_section(config, args.B)
    result = decode_section(chart, dorfman(config.theta, A, B))
    lines = [f"L_{args.A} {args.B} = {result}"]
    payload = {
        "command": "bracket", "A": args.A, "B": args.B,
        "result": {
            "v": [str(c) for c in result.v],
            "lambda": _form_terms(result.lam),
        },
        "rendered": str(result),
    }
    if result.sigma is not None:
        payload["result"]["sigma"] = _form_terms(result.sigma)
    return payload, "\n".join(lines), PASS


def cmd_axioms(config: Config, args) -> tuple[dict, str, int]:
    from .algebroid import verify_courant, verify_leibniz
    trials = config.trials if args.trials is None else \
        bounded("--trials", args.trials, 1, MAX_TRIALS)
    max_degree = _resolve_max_degree(args, config)
    verify = verify_courant if args.suite == "courant" else verify_leibniz
    suite = verify(config.theta, trials=trials, seed=args.seed, max_degree=max_degree)
    return _suite_result("axioms", suite)


def cmd_rank(config: Config, args) -> tuple[dict, str, int]:
    chart = config.chart
    ns = list(range(chart.p + 1)) if args.n is None else \
        [bounded("--n", args.n, 0, chart.p)]
    lines, rows = [], []
    for n in ns:
        rank = monomial_count(chart, n)
        lines.append(f"n={n}: {rank}")
        row = {"n": n, "rank": rank}
        if args.n is not None:
            if rank > MAX_BASIS:
                raise ConfigError("--n", f"the degree-{n} basis has {rank} "
                                  f"monomials, more than {MAX_BASIS} to list")
            zero = GradedElement.zero(chart)
            names = [zero.render_mono(m) for m in monomial_basis(chart, n)]
            lines.extend(f"  {name}" for name in names)
            row["basis"] = names
        rows.append(row)
    payload = {"command": "rank", "chart": {"kind": chart.kind, "d": chart.d,
                                            "p": chart.p}, "ranks": rows}
    return payload, "\n".join(lines), PASS


def cmd_classify(config: Config, args) -> tuple[dict, str, int]:
    chart = config.chart
    theta = config.theta
    checks: list[CheckReport] = []
    primitives: dict[str, DiffForm] = {}
    if theta.twist[0] == "beta":
        beta = theta.twist[1]
        dbeta = ext_d(beta)
        closed = dbeta.is_zero()
        checks.append(CheckReport("twist closure (d beta = 0)", closed,
                                  [] if closed else [str(dbeta)]))
        if closed and not beta.is_zero():
            primitives["beta"] = poincare_primitive(beta)
    else:
        _, F4, F7 = theta.twist
        dF4 = ext_d(F4)
        closed4 = dF4.is_zero()
        checks.append(CheckReport("twist closure (d F4 = 0)", closed4,
                                  [] if closed4 else [str(dF4)]))
        bianchi = ext_d(F7) + wedge(F4, F4) * Fraction(1, 2)
        ok7 = bianchi.is_zero()
        checks.append(CheckReport("Bianchi identity (d F7 + 1/2 F4^F4 = 0)",
                                  ok7, [] if ok7 else [str(bianchi)]))
        if closed4 and not F4.is_zero():
            primitives["F4"] = poincare_primitive(F4)
    passed = all(c.passed for c in checks)
    lines = [c.render() for c in checks]
    for name, prim in primitives.items():
        lines.append(f"primitive of {name} (exact class is trivial on R^{chart.d}): "
                     f"{prim}")
    lines.append(f"classify: {'PASS' if passed else 'FAIL'}")
    payload = {"command": "classify",
               "status": "PASS" if passed else "FAIL",
               "checks": [c.to_dict() for c in checks],
               "primitives": {k: _form_terms(v) for k, v in primitives.items()}}
    return payload, "\n".join(lines), PASS if passed else FAIL


def cmd_genmetric(config: Config, args) -> tuple[dict, str, int]:
    from . import genmetric as gm
    action = args.action
    payload: dict = {"command": "genmetric", "action": action}
    lines: list[str] = []
    if action == "build":
        H = gm.build_gen_metric(_background(config))
        _put_matrix(payload, lines, "H", "H", H.H)
    elif action == "act":
        H = gm.build_gen_metric(_background(config))
        O = _named_matrix(config, "O")
        with _blame("O"):
            Hp = gm.act(O, H)
        _put_matrix(payload, lines, "H", "H' = O^t H O", Hp.H)
        try:
            bgp = gm.extract(Hp)
        except MatrixError:
            bgp = None
        if bgp is not None:
            _put_matrix(payload, lines, "g", "g'", bgp.g)
            _put_matrix(payload, lines, "b", "b'", bgp.b)
    else:  # extract
        H = _named_matrix(config, "H")
        with _blame("H"):
            bg = gm.extract(gm.GenMetric(H))
        _put_matrix(payload, lines, "g", "g", bg.g)
        _put_matrix(payload, lines, "b", "b", bg.b)
    return payload, "\n".join(lines), PASS


# ---------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradedq",
        description="Exact verification of graded-symplectic algebroid structures.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", help="path to the JSON config file")
    common.add_argument("--json", action="store_true",
                        help="emit a machine-readable JSON report")
    # only the seeded suites draw random data
    harness = argparse.ArgumentParser(add_help=False)
    harness.add_argument("--max-coeff-degree", type=int, default=None,
                         metavar="D", dest="max_coeff_degree",
                         help="cap on random polynomial coefficient degree")
    harness.add_argument("--seed", type=int, default=None,
                         help="harness seed (fallback: config, then GB_SEED)")

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("check-master", parents=[common],
                   help="verify (Theta, Theta) = 0")

    q2 = sub.add_parser("q-square", parents=[common, harness],
                        help="probe Q^2 = 0 on generators and random elements")
    q2.add_argument("--samples", type=int, default=8)

    br = sub.add_parser("bracket", parents=[common],
                        help="derived Dorfman bracket of two named sections")
    br.add_argument("--A", required=True, metavar="NAME")
    br.add_argument("--B", required=True, metavar="NAME")

    ax = sub.add_parser("axioms", parents=[common, harness],
                        help="run an axiom verification suite")
    ax.add_argument("--suite", required=True, choices=["courant", "leibniz"])
    ax.add_argument("--trials", type=int, default=None)

    rk = sub.add_parser("rank", parents=[common],
                        help="section-module ranks (and basis with --n)")
    rk.add_argument("--n", type=int, default=None)

    sub.add_parser("classify", parents=[common],
                   help="twist closure and Poincare primitive")

    gme = sub.add_parser("genmetric", help="generalised-metric toolkit")
    gme.add_argument("action", choices=["build", "act", "extract"])
    gme.add_argument("config", help="path to the JSON config file")
    gme.add_argument("--json", action="store_true",
                     help="emit a machine-readable JSON report")

    return parser


_HANDLERS = {
    "check-master": cmd_check_master,
    "q-square": cmd_q_square,
    "bracket": cmd_bracket,
    "axioms": cmd_axioms,
    "rank": cmd_rank,
    "classify": cmd_classify,
    "genmetric": cmd_genmetric,
}


def _emit(args, payload: dict, text: str):
    _print(json.dumps(payload, sort_keys=True, indent=2) if args.json else text)


def _print(text: str):
    """Print text to stdout and flush it.  A reader that closed the pipe
    early (`| head`) is not an error: stdout's descriptor is pointed at
    devnull, so the flush at interpreter exit stays quiet and the exit
    code stays the verdict's."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        except (OSError, ValueError):  # a stdout with no descriptor
            pass
        finally:
            os.close(devnull)


def _read_config(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError("<root>", f"config is not UTF-8 text: {exc.reason} "
                              f"at byte {exc.start}") from None


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage, matching the input-error code
        return INPUT_ERROR if exc.code else PASS
    try:
        config = parse_config(_read_config(args.config))
        if "seed" in args:  # the seeded suites; GB_SEED is input text too
            args.seed = _resolve_seed(args, config)
        with _exact_digits():
            payload, text, code = _HANDLERS[args.command](config, args)
            payload["exit_code"] = code
            _emit(args, payload, text)
        return code
    except _INPUT_ERRORS as exc:
        message = str(exc)
        if args.json:
            _print(json.dumps({"command": args.command, "status": "ERROR",
                               "error": message}, sort_keys=True, indent=2))
        else:
            print(f"error: {message}", file=sys.stderr)
        return INPUT_ERROR
    except Exception as exc:  # a defect in gradedq, not in the input
        message = f"{type(exc).__name__}: {exc}".replace("\n", " ")
        if args.json:
            _print(json.dumps({"command": args.command, "status": "INTERNAL",
                               "error": message}, sort_keys=True, indent=2))
        print(f"internal error: {message}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
