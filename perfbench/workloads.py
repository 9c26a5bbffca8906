"""The four workloads: seeded input generation with known answers, and jobs.

Generation runs in the benchmark's parent process, untimed.  It produces
the job inputs the worker receives and, separately, the known answer of
each job.  Known answers come from construction (a closed twist passes
every Courant axiom) or from the exterior-calculus oracle in
`gradedq.forms`, never from the graded engine being timed.

Jobs run in the worker.  They reach gradedq only through module
attributes looked up at call time, so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
from fractions import Fraction


def job_rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


def rand_poly(rng: random.Random, d: int, max_deg: int = 2, terms: int = 2,
              halves: bool = False) -> dict:
    """Random polynomial {exponent tuple: Fraction}, never zero."""
    out: dict = {}
    for _ in range(rng.randint(1, terms)):
        exp = [0] * d
        for _ in range(rng.randint(0, max_deg)):
            exp[rng.randrange(d)] += 1
        c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                     rng.choice((1, 2)) if halves else 1)
        key = tuple(exp)
        out[key] = out.get(key, 0) + c
    out = {e: c for e, c in out.items() if c}
    return out or {(0,) * d: Fraction(1)}


def rand_form(rng: random.Random, d: int, rank: int, components: int) -> list:
    """Random form as [(sorted indices, poly terms)], components may repeat."""
    return [(tuple(sorted(rng.sample(range(1, d + 1), rank))), rand_poly(rng, d))
            for _ in range(components)]


def encode_form(form: list) -> list:
    """JSON form: [[indices], [[exponents], "p/q"], ...]]."""
    return [[list(idx), [[list(e), str(c)] for e, c in sorted(terms.items())]]
            for idx, terms in form]


def diffform_terms(omega) -> list:
    """The (indices, poly terms) list of a gradedq DiffForm."""
    return [(idx, dict(omega.terms[idx].terms)) for idx in sorted(omega.terms)]


def poly_text(terms: dict) -> str:
    """Polynomial in the config grammar, e.g. '3/2*x1^2 - x3 + 1'."""
    out = ""
    for exp, c in sorted(terms.items(), reverse=True):
        mono = "*".join(f"x{i + 1}" + (f"^{k}" if k > 1 else "")
                        for i, k in enumerate(exp) if k)
        mag = abs(c)
        body = mono if (mono and mag == 1) else (f"{mag}*{mono}" if mono else str(mag))
        if not out:
            out = body if c > 0 else f"-{body}"
        else:
            out += f" + {body}" if c > 0 else f" - {body}"
    return out


# ---------------------------------------------------------------------
# worker-side decoding
# ---------------------------------------------------------------------

def decode_form(gq, d: int, rank: int, data: list):
    form = gq.DiffForm(d, rank)
    for idx, terms in data:
        form.add_term(tuple(idx), gq.Poly(d, {tuple(e): c for e, c in terms}))
    return form


def suite_verdict(suite) -> dict:
    return {"status": "PASS" if suite.passed else "FAIL",
            "checks": len(suite.checks),
            "trials": sorted({c.trials for c in suite.checks if c.trials is not None})}


class Workload:
    """One workload: `generate` (parent) and `setup`/`run` (worker)."""

    name = ""
    rate_cap = 0.0     # jobs/s the input pool is sized for: ~10x today's rate
    trace_jobs = 0     # fixed job count of the traced run
    min_cycles = 0     # passes over the input pool a timed run completes
    smoke_trace_jobs = 2

    def pool_size(self, seconds: float, min_jobs: int) -> int:
        return max(min_jobs, int(seconds * self.rate_cap) + 1)

    def generate(self, seed: int, count: int, workdir) -> tuple[dict, list, list]:
        """(meta, job inputs, known answers)."""
        raise NotImplementedError

    def check(self, verdict: dict, answer: dict) -> bool:
        return verdict == answer


class Courant(Workload):
    """verify_courant on vinogradov(3,2) with the closed twist x2 dx123."""

    name = "courant"
    rate_cap = 120.0
    trace_jobs = 16

    def generate(self, seed, count, workdir):
        rng = job_rng(self.name, seed)
        jobs = [{"seed": rng.getrandbits(31)} for _ in range(count)]
        answer = {"status": "PASS", "checks": 6, "trials": [4]}
        return {}, jobs, [answer] * count

    def setup(self, meta):
        import gradedq as gq
        chart = gq.make_chart("vinogradov", 3, 2)
        beta = gq.DiffForm.basis(3, (1, 2, 3), gq.Poly.var(3, 2))
        return {"gq": gq, "theta": gq.theta_vinogradov(chart, beta)}

    def run(self, ctx, job):
        gq = ctx["gq"]
        return suite_verdict(gq.verify_courant(ctx["theta"], trials=4, seed=job["seed"]))


class HfluxDense(Workload):
    """One Leibniz trial plus one gauge-covariance check on vinogradov(4,3)
    with the dense top-form twist (1 + x1 + 2 x2 - x3 + x4/2)^K dx1234."""

    name = "hflux-dense"
    power = 3
    rate_cap = 60.0
    trace_jobs = 8

    def generate(self, seed, count, workdir):
        rng = job_rng(self.name, seed)
        jobs = [{"seed": rng.getrandbits(31),
                 "rho": encode_form(rand_form(rng, 4, 3, components=2))}
                for _ in range(count)]
        answer = {"status": "PASS", "checks": 1, "trials": [1], "gauge": True}
        return {}, jobs, [answer] * count

    def setup(self, meta):
        import gradedq as gq
        chart = gq.make_chart("vinogradov", 4, 3)
        x = [gq.Poly.var(4, mu) for mu in range(1, 5)]
        base = 1 + x[0] + 2 * x[1] - x[2] + Fraction(1, 2) * x[3]
        beta = gq.DiffForm.basis(4, (1, 2, 3, 4), base ** self.power)
        return {"gq": gq, "chart": chart, "beta": beta,
                "theta": gq.theta_vinogradov(chart, beta)}

    def run(self, ctx, job):
        gq, chart, theta = ctx["gq"], ctx["chart"], ctx["theta"]
        out = suite_verdict(gq.verify_leibniz(theta, trials=1, seed=job["seed"]))
        rho = decode_form(gq, 4, 3, job["rho"])
        moved = gq.gauge_exp(gq.embed_form(chart, rho), theta.element)
        target = gq.theta_vinogradov(chart, ctx["beta"] + gq.ext_d(rho)).element
        out["gauge"] = moved == target
        return out


class M5Bianchi(Workload):
    """master_equation and q_square_check on the m5 chart at d=8.

    Even jobs are Bianchi-closed by construction (F4 = d omega,
    F7 = K(-F4^F4/2)); odd jobs take random F4 and F7.  The oracle
    verdict is dF4 = 0 and dF7 + F4^F4/2 = 0, from gradedq.forms.
    """

    name = "m5-bianchi"
    d = 8
    samples = 8
    rate_cap = 160.0
    trace_jobs = 12

    def generate(self, seed, count, workdir):
        from gradedq import forms
        d = self.d
        rng = job_rng(self.name, seed)
        half = Fraction(1, 2)

        def build(rank, data):
            omega = forms.DiffForm(d, rank)
            for idx, terms in data:
                omega.add_term(idx, forms.Poly(d, terms))
            return omega

        jobs, answers = [], []
        for i in range(count):
            if i % 2 == 0:
                F4 = forms.ext_d(build(3, rand_form(rng, d, 3, components=2)))
                src = forms.wedge(F4, F4) * (-half)
                F7 = forms.homotopy(src) if not src.is_zero() else forms.DiffForm(d, 7)
            else:
                F4 = build(4, rand_form(rng, d, 4, components=rng.randint(1, 2)))
                F7 = build(7, rand_form(rng, d, 7, components=1))
            closed = (forms.ext_d(F4).is_zero()
                      and (forms.ext_d(F7) + forms.wedge(F4, F4) * half).is_zero())
            if i % 2 == 0 and not closed:
                raise RuntimeError("Bianchi construction is not closed")
            jobs.append({"seed": rng.getrandbits(31),
                         "F4": encode_form(diffform_terms(F4)),
                         "F7": encode_form(diffform_terms(F7))})
            answers.append({"master": closed, "q_square": closed,
                            "checks": 4 * d + 1 + self.samples})
        return {}, jobs, answers

    def setup(self, meta):
        import gradedq as gq
        return {"gq": gq, "chart": gq.make_chart("m5", self.d)}

    def run(self, ctx, job):
        gq, chart, d = ctx["gq"], ctx["chart"], self.d
        theta = gq.theta_m5(chart, decode_form(gq, d, 4, job["F4"]),
                            decode_form(gq, d, 7, job["F7"]))
        _, ok = gq.master_equation(theta)
        suite = gq.q_square_check(theta, samples=self.samples, seed=job["seed"])
        return {"master": ok, "q_square": suite.passed, "checks": len(suite.checks)}


class Cli(Workload):
    """One `python -m gradedq.cli ... --json` process per job, in turn.

    The pool holds four seeded variants of each of fourteen slots (two in
    the traced run) and is cycled at least twice, so every argv repeats
    within a run and its --json bytes are compared with its first output.
    The Courant suite, the slowest command, fills three slots (3/14 of
    the jobs), so p90 falls inside its latency cluster, not on the edge
    between it and the next slowest command, where it would jump between
    the two from run to run.
    """

    name = "cli"
    kinds = ("master-pass", "master-fail", "master-error", "q-square",
             "axioms-courant", "axioms-leibniz", "bracket", "rank", "classify",
             "genmetric-build", "axioms-courant-2", "genmetric-act",
             "genmetric-extract", "axioms-courant-3")
    min_cycles = 2
    trace_jobs = 2 * len(kinds)
    smoke_trace_jobs = len(kinds)

    def pool_size(self, seconds, min_jobs):
        return 4 * len(self.kinds)

    def generate(self, seed, count, workdir):
        rng = job_rng(self.name, seed)
        jobs, answers, configs = [], [], []
        for variant in range(count // len(self.kinds)):
            for kind in self.kinds:
                path = workdir / f"cli-{variant}-{kind}.json"
                doc, argv, answer = self._make(rng, kind)
                path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
                configs.append(str(path))
                jobs.append({"argv": [a if a != "CFG" else str(path) for a in argv]})
                answers.append(answer)
        return {"configs": configs}, jobs, answers

    @staticmethod
    def _section(rng, d):
        v = [poly_text(rand_poly(rng, d)) if rng.random() < 0.7 else "0"
             for _ in range(d)]
        lam = [{"indices": [mu], "coeff": poly_text(rand_poly(rng, d))}
               for mu in sorted(rng.sample(range(1, d + 1), 2))]
        return {"v": v, "lambda": lam}

    @staticmethod
    def _matrices(rng, d):
        g = [[Fraction(0)] * d for _ in range(d)]
        b = [[Fraction(0)] * d for _ in range(d)]
        for i in range(d):
            g[i][i] = Fraction(rng.randint(1, 4), rng.randint(1, 2))
            for j in range(i + 1, d):
                b[i][j] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                b[j][i] = -b[i][j]
        ginv = [[(1 / g[i][i]) if i == j else Fraction(0) for j in range(d)]
                for i in range(d)]

        def mul(x, y):
            return [[sum(x[i][k] * y[k][j] for k in range(d)) for j in range(d)]
                    for i in range(d)]

        bgb = mul(mul(b, ginv), b)
        H = [[g[i][j] - bgb[i][j] for j in range(d)] + mul(b, ginv)[i]
             for i in range(d)]
        H += [[-x for x in mul(ginv, b)[i]] + ginv[i] for i in range(d)]
        swap = [[int(abs(i - j) == d) for j in range(2 * d)] for i in range(2 * d)]
        # B-shift ((I, 0), (-b', I)) with b' = b
        shift = [[int(i == j) for j in range(2 * d)] for i in range(d)]
        shift += [[-x for x in b[i]] + [int(i == j) for j in range(d)] for i in range(d)]

        def text(m):
            return [[str(Fraction(c)) for c in row] for row in m]

        return {"g": text(g), "b": text(b), "H": text(H),
                "O": text(swap if rng.random() < 0.5 else shift)}

    def _make(self, rng, kind):
        d = 3
        s = str(rng.getrandbits(16))
        doc = {"chart": {"kind": "vinogradov", "d": d, "p": 2},
               "theta": {"type": "vinogradov",
                         "beta": [{"indices": [1, 2, 3],
                                   "coeff": poly_text(rand_poly(rng, d, halves=True))}]},
               "sections": {"A": self._section(rng, d), "B": self._section(rng, d)},
               "matrices": self._matrices(rng, rng.randint(2, 3)),
               "harness": {"trials": 2, "seed": int(s)}}
        ok = {"exit": 0, "checks": None, "trials": None}
        if kind == "master-pass":
            return doc, ["check-master", "CFG", "--json"], {**ok, "checks": 1}
        if kind == "master-fail":
            # a twist c * x_m dx_abc with m outside abc has d beta != 0
            m = rng.randint(1, 4)
            idx = [i for i in range(1, 5) if i != m]
            coeff = f"{rng.choice((-3, -2, -1, 1, 2, 3))}*x{m}"
            doc = {"chart": {"kind": "vinogradov", "d": 4, "p": 2},
                   "theta": {"type": "vinogradov",
                             "beta": [{"indices": idx, "coeff": coeff}]}}
            return doc, ["check-master", "CFG", "--json"], \
                {"exit": 1, "checks": 1, "trials": None}
        if kind == "master-error":
            flaw = rng.randrange(3)
            if flaw == 0:
                doc["chart"]["d"] = 0
            elif flaw == 1:
                doc["theta"]["beta"][0]["coeff"] = "x7 + 1"
            else:
                doc["theta"]["beta"][0]["indices"] = [1, 2]
            return doc, ["check-master", "CFG", "--json"], \
                {"exit": 2, "checks": None, "trials": None}
        if kind == "q-square":
            return doc, ["q-square", "CFG", "--samples", "4", "--seed", s, "--json"], \
                {**ok, "checks": 4 * d + 4}
        if kind.startswith("axioms-courant"):
            return doc, ["axioms", "CFG", "--suite", "courant", "--trials", "4",
                         "--seed", s, "--json"], {**ok, "checks": 6, "trials": [4]}
        if kind == "axioms-leibniz":
            return doc, ["axioms", "CFG", "--suite", "leibniz", "--json"], \
                {**ok, "checks": 1, "trials": [2]}
        if kind == "bracket":
            return doc, ["bracket", "CFG", "--A", "A", "--B", "B", "--json"], ok
        if kind == "rank":
            return doc, ["rank", "CFG", "--n", "1", "--json"], ok
        if kind == "classify":
            return doc, ["classify", "CFG", "--json"], {**ok, "checks": 1}
        action = kind.split("-")[1]
        return doc, ["genmetric", action, "CFG", "--json"], ok

    def setup(self, meta):
        import os
        from gradedq import cli, config
        for path in meta["configs"]:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            with contextlib.suppress(config.ConfigError):
                config.parse_config(text)
        env = dict(os.environ, PYTHONPATH=meta["src"])
        return {"cli": cli, "env": env}

    @staticmethod
    def _verdict(code: int, out: bytes) -> dict:
        verdict = {"exit": code, "sha": hashlib.sha256(out).hexdigest()[:16],
                   "checks": None, "trials": None}
        try:
            payload = json.loads(out)
        except ValueError:
            return verdict
        if "checks" in payload:
            verdict["checks"] = len(payload["checks"])
        trials = {c["trials"] for c in payload.get("checks", []) if "trials" in c}
        if trials:
            verdict["trials"] = sorted(trials)
        return verdict

    def run(self, ctx, job):
        proc = subprocess.run([sys.executable, "-m", "gradedq.cli", *job["argv"]],
                              env=ctx["env"], capture_output=True, timeout=120)
        return self._verdict(proc.returncode, proc.stdout)

    def run_inprocess(self, ctx, job):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = ctx["cli"].main(job["argv"])
        return self._verdict(code, buf.getvalue().encode())

    def check(self, verdict, answer):
        return {k: verdict.get(k) for k in answer} == answer


WORKLOADS = {w.name: w for w in (Courant(), HfluxDense(), M5Bianchi(), Cli())}
