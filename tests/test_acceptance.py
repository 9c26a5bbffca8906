"""Acceptance gate: the twelve exact verification criteria.

Each test prints one "criterion N: PASS" line (visible with -s or in the
captured output) and enforces its wall-clock budget.  Every check is an
exact rational identity; there are no tolerances.
"""

import json
import pathlib
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from gradedq import (DiffForm, GradedElement, Poly, Section, classical_dorfman,
                     decode_section, dorfman, encode_section, ext_d, gauge_exp,
                     homotopy, interior, lie_deriv, make_chart, master_equation,
                     module_rank, poisson, q_apply, q_square_check, theta_m5,
                     theta_vinogradov, verify_courant, verify_leibniz, wedge)
from gradedq.genmetric import (Background, act, b_shift, block_swap,
                               build_gen_metric, eta_matrix, extract, mat_mul,
                               mat_t)
from gradedq.npq import embed_form
from gradedq.randomgen import random_form, random_homogeneous, random_section

DATA = pathlib.Path(__file__).parent / "data"
CHARTS = [make_chart("vinogradov", 3, 2), make_chart("vinogradov", 4, 3),
          make_chart("m5", 6)]


def sign(k: int) -> int:
    return -1 if k % 2 else 1


def gen(chart, name):
    return GradedElement.generator(chart, name)


@contextmanager
def criterion(num: int, label: str, budget: float):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"criterion {num}: PASS ({label}, {elapsed:.2f}s)")


def test_c01_pairing_table_conformance():
    with criterion(1, "Darboux pairing table", 1.0):
        for chart in CHARTS:
            one = GradedElement.from_poly(chart, Poly.const(chart.d, 1))
            zero = GradedElement.zero(chart)
            for mu in range(1, chart.d + 1):
                for nu in range(1, chart.d + 1):
                    dmn = one if mu == nu else zero
                    assert poisson(gen(chart, f"psi{mu}"), gen(chart, f"chi{nu}")) == dmn
                    assert poisson(gen(chart, f"chi{nu}"), gen(chart, f"psi{mu}")) == \
                        dmn * sign(chart.p)
                    assert poisson(gen(chart, f"p{mu}"), gen(chart, f"x{nu}")) == dmn
                    assert poisson(gen(chart, f"x{nu}"), gen(chart, f"p{mu}")) == -dmn
                    assert poisson(gen(chart, f"psi{mu}"), gen(chart, f"psi{nu}")).is_zero()
                    assert poisson(gen(chart, f"chi{mu}"), gen(chart, f"chi{nu}")).is_zero()
                    assert poisson(gen(chart, f"p{mu}"), gen(chart, f"p{nu}")).is_zero()
            if chart.kind == "m5":
                assert poisson(gen(chart, "zeta"), gen(chart, "zeta")) == one
                for mu in range(1, chart.d + 1):
                    for fam in ("x", "psi", "chi", "p"):
                        assert poisson(gen(chart, "zeta"), gen(chart, f"{fam}{mu}")).is_zero()


def test_c02_poisson_algebra_suite():
    with criterion(2, "graded symmetry / Leibniz / Jacobi, 200 triples per chart", 60.0):
        for chart in CHARTS:
            rng = random.Random(100 + chart.p)
            for _ in range(200):
                nf, ng, nh = (rng.randint(0, chart.p + 1) for _ in range(3))
                f = random_homogeneous(rng, chart, nf)
                g = random_homogeneous(rng, chart, ng)
                h = random_homogeneous(rng, chart, nh)
                sf, sg = nf - chart.p, ng - chart.p
                assert poisson(f, g) == poisson(g, f) * -sign(sf * sg)
                assert poisson(f, g * h) == \
                    poisson(f, g) * h + g * poisson(f, h) * sign(sf * ng)
                assert poisson(f, poisson(g, h)) == \
                    poisson(poisson(f, g), h) \
                    + poisson(g, poisson(f, h)) * sign(sf * sg)


def test_c03_boxed_equivalence_q_square_iff_master():
    with criterion(3, "q_square_check pass iff (Theta,Theta)=0, 20 Theta per family", 60.0):
        rng = random.Random(300)
        seen = {True: 0, False: 0}
        for k in range(20):
            p = rng.choice([2, 3])
            d = rng.randint(p + 1, 4)
            chart = make_chart("vinogradov", d, p)
            beta = random_form(rng, d, p + 1)
            if k % 2 == 0:
                beta = ext_d(random_form(rng, d, p))
            theta = theta_vinogradov(chart, beta)
            _, master_ok = master_equation(theta)
            assert q_square_check(theta, samples=4, seed=k).passed == master_ok
            seen[master_ok] += 1
        chart = make_chart("m5", 6)
        for k in range(20):
            F4 = (ext_d(random_form(rng, 6, 3)) if k % 2 == 0
                  else random_form(rng, 6, 4))
            theta = theta_m5(chart, F4, DiffForm.zero(6, 7))
            _, master_ok = master_equation(theta)
            assert q_square_check(theta, samples=4, seed=k).passed == master_ok
            seen[master_ok] += 1
        assert seen[True] and seen[False]


def test_c04_vinogradov_classification():
    with criterion(4, "(Theta_beta,Theta_beta)=0 iff d beta=0, 50 beta", 60.0):
        rng = random.Random(400)
        seen = {True: 0, False: 0}
        for k in range(50):
            p = rng.choice([2, 3])
            d = rng.randint(p + 1, 4)
            chart = make_chart("vinogradov", d, p)
            beta = (ext_d(random_form(rng, d, p)) if k % 3 == 0
                    else random_form(rng, d, p + 1))
            closed = ext_d(beta).is_zero()
            _, ok = master_equation(theta_vinogradov(chart, beta))
            assert ok == closed
            seen[closed] += 1
        assert seen[True] and seen[False]


def test_c05_m5_bianchi_equivalence():
    with criterion(5, "M5 master iff {dF4=0, dF7+1/2 F4^F4=0} at d=8", 120.0):
        chart = make_chart("m5", 8)
        F4 = DiffForm.basis(8, (1, 2, 3, 4)) + DiffForm.basis(8, (5, 6, 7, 8))
        # the Bianchi identity dF7 = -1/2 F4^F4 = -dx12345678 pins the
        # witness coefficient to -1 exactly
        F7 = DiffForm.basis(8, (2, 3, 4, 5, 6, 7, 8), Poly.var(8, 1)) * (-1)
        assert (ext_d(F7) + wedge(F4, F4) * Fraction(1, 2)).is_zero()
        _, ok = master_equation(theta_m5(chart, F4, F7))
        assert ok
        _, ok_zero = master_equation(theta_m5(chart, F4, DiffForm.zero(8, 7)))
        assert not ok_zero
        # random sweep, both directions, against the exterior-calculus oracle
        rng = random.Random(500)
        seen = {True: 0, False: 0}
        for k in range(8):
            if k % 2 == 0:
                F4r = ext_d(random_form(rng, 8, 3, components=1))
                src = wedge(F4r, F4r) * Fraction(-1, 2)
                F7r = (homotopy(src) if not src.is_zero() else DiffForm.zero(8, 7))
            else:
                F4r = random_form(rng, 8, 4, components=1)
                F7r = random_form(rng, 8, 7, components=1)
            bianchi = (ext_d(F4r).is_zero()
                       and (ext_d(F7r) + wedge(F4r, F4r) * Fraction(1, 2)).is_zero())
            _, okr = master_equation(theta_m5(chart, F4r, F7r))
            assert okr == bianchi
            seen[bianchi] += 1
        assert seen[True] and seen[False]


def test_c06_derived_equals_classical():
    with criterion(6, "dorfman == encode(classical_dorfman), 200 pairs per family", 120.0):
        families = [make_chart("vinogradov", 3, 2), make_chart("vinogradov", 4, 2),
                    make_chart("vinogradov", 3, 3), make_chart("vinogradov", 4, 3),
                    make_chart("m5", 6)]
        lam_dlam_seen = False
        for chart in families:
            theta = theta_m5(chart) if chart.kind == "m5" else theta_vinogradov(chart)
            rng = random.Random(600 + chart.d + 10 * chart.p)
            for _ in range(200):
                sA, sB = random_section(rng, chart), random_section(rng, chart)
                got = decode_section(chart, dorfman(
                    theta, encode_section(chart, sA), encode_section(chart, sB)))
                want = classical_dorfman(chart.kind, sA, sB)
                assert got == want
                if chart.kind == "m5" and not wedge(sB.lam, ext_d(sA.lam)).is_zero():
                    lam_dlam_seen = True
        assert lam_dlam_seen  # at least one pair exercised -lam' ^ d lam


def test_c07_courant_axiom_suite():
    with criterion(7, "five Courant axioms + rho rho* = 0, 100 trials", 60.0):
        chart = make_chart("vinogradov", 3, 2)
        untwisted = theta_vinogradov(chart)
        assert verify_courant(untwisted, trials=100, seed=7).passed
        closed = theta_vinogradov(chart, DiffForm.basis(3, (1, 2, 3), Poly.var(3, 2)))
        assert verify_courant(closed, trials=100, seed=8).passed
        # negative control: a non-closed twist breaks the Leibniz identity
        chart4 = make_chart("vinogradov", 4, 2)
        broken = theta_vinogradov(
            chart4, DiffForm.basis(4, (1, 2, 3), Poly.var(4, 4)))
        suite = verify_courant(broken, trials=20, seed=9)
        leibniz = next(c for c in suite.checks
                       if c.check == "axiom 4 (Leibniz identity)")
        assert not leibniz.passed and leibniz.witnesses


def test_c08_rank_claims():
    with criterion(8, "module ranks 2d / 10 / 27", 1.0):
        for d in (1, 2, 3, 4, 5, 6):
            assert module_rank(make_chart("vinogradov", d, 2), 1) == 2 * d
        assert module_rank(make_chart("vinogradov", 4, 3), 2) == 10
        assert module_rank(make_chart("m5", 6), 5) == 27


def test_c09_gauge_covariance():
    with criterion(9, "gauge_exp(embed rho, Theta_beta) = Theta_{beta+d rho}", 60.0):
        for p in (2, 3):
            d = p + 2
            chart = make_chart("vinogradov", d, p)
            rng = random.Random(900 + p)
            for _ in range(20):
                beta = random_form(rng, d, p + 1)
                rho = random_form(rng, d, p)
                R = embed_form(chart, rho)
                moved = gauge_exp(R, theta_vinogradov(chart, beta).element)
                assert moved == theta_vinogradov(chart, beta + ext_d(rho)).element
        # bracket conjugation on section pairs
        chart = make_chart("vinogradov", 3, 2)
        rng = random.Random(909)
        for _ in range(20):
            R = embed_form(chart, random_form(rng, 3, 2))
            A = encode_section(chart, random_section(rng, chart))
            B = encode_section(chart, random_section(rng, chart))
            assert gauge_exp(R, poisson(A, B)) == \
                poisson(gauge_exp(R, A), gauge_exp(R, B))


def test_c10_cartan_self_checks():
    with criterion(10, "d^2=0, magic formula, dK+Kd=id, wedge sign, cross-engine", 60.0):
        rng = random.Random(1000)
        for _ in range(200):
            d = rng.randint(1, 8)
            r = rng.randint(0, min(d, 7))
            omega = random_form(rng, d, r)
            assert ext_d(ext_d(omega)).is_zero()
            tau = random_form(rng, d, rng.randint(0, min(d, 3)))
            assert wedge(omega, tau) == wedge(tau, omega) * sign(omega.rank * tau.rank)
            if r >= 1:
                assert ext_d(homotopy(omega)) + homotopy(ext_d(omega)) == omega
            v = tuple(Poly.var(d, rng.randint(1, d)) for _ in range(d))
            assert lie_deriv(v, omega) == (
                interior(v, ext_d(omega)) if r == 0
                else ext_d(interior(v, omega)) + interior(v, ext_d(omega)))
        # cross-engine differential: Q on embedded forms is the embedded d
        for chart in (make_chart("vinogradov", 3, 2), make_chart("vinogradov", 4, 3)):
            theta = theta_vinogradov(chart)
            rng2 = random.Random(1010)
            for _ in range(50):
                omega = random_form(rng2, chart.d, rng2.randint(0, chart.d - 1))
                assert q_apply(theta, embed_form(chart, omega)) == \
                    embed_form(chart, ext_d(omega))


def test_c11_genmetric():
    with criterion(11, "build/extract roundtrip, invariants, block swap", 10.0):
        rng = random.Random(1100)
        for _ in range(100):
            d = rng.randint(1, 4)
            g = [[Fraction(0)] * d for _ in range(d)]
            b = [[Fraction(0)] * d for _ in range(d)]
            for i in range(d):
                for j in range(i + 1, d):
                    g[i][j] = g[j][i] = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                    b[i][j] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    b[j][i] = -b[i][j]
            for i in range(d):
                g[i][i] = Fraction(rng.randint(1, 3)) + sum(abs(x) for x in g[i])
            bg = Background(g, b)
            H = build_gen_metric(bg)
            eta = eta_matrix(d)
            assert H.H == mat_t(H.H)
            assert mat_mul(mat_mul(H.H, eta), H.H) == eta
            back = extract(H)
            assert back.g == bg.g and back.b == bg.b
            moved = act(b_shift(b), H)
            assert moved.H == mat_t(moved.H)
            assert mat_mul(mat_mul(moved.H, eta), moved.H) == eta
        # block swap on d=1, g=(2) gives the inverse-radius background
        out = extract(act(block_swap(1), build_gen_metric(Background([[2]], [[0]]))))
        assert out.g == ((Fraction(1, 2),),)
        assert out.b == ((Fraction(0),),)


def test_c12_cli_contract():
    with criterion(12, "CLI exit codes and byte-identical reports", 10.0):
        cases = [("golden_pass.json", 0), ("golden_fail.json", 1),
                 ("golden_error.json", 2)]
        for name, code in cases:
            argv = [sys.executable, "-m", "gradedq.cli", "check-master",
                    str(DATA / name), "--json"]
            first = subprocess.run(argv, capture_output=True, text=True)
            second = subprocess.run(argv, capture_output=True, text=True)
            assert first.returncode == code, (name, first.returncode)
            assert first.stdout == second.stdout
            if code != 2:
                json.loads(first.stdout)
        argv = [sys.executable, "-m", "gradedq.cli", "axioms",
                str(DATA / "golden_pass.json"), "--suite", "courant",
                "--trials", "4", "--seed", "11", "--json"]
        a = subprocess.run(argv, capture_output=True, text=True)
        b = subprocess.run(argv, capture_output=True, text=True)
        assert a.returncode == 0 and a.stdout == b.stdout
