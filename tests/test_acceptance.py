"""Acceptance suite: one test per shipping criterion, each printing a single
PASS/FAIL line (visible under pytest -v -s or on failure) and enforcing its
time budget.

Statistical criteria run under fixed seeds, so every run is an exact
regression of the same numbers.
"""
import json
import math
import subprocess
import sys
import time

import numpy as np
from scipy import integrate

from chaos_bounds import (
    Binomial,
    ClusterModel,
    ConstantMark,
    ExponentialMark,
    FactorialMoments,
    InterferenceModel,
    PoissonMean,
    delta_binomial,
    delta_poisson,
    dkw_margin,
    abel_plana_bound,
    cluster_bounds_for_law,
    hertzian_integral,
    insurance_tail_report,
    mark_abs_moments,
    progeny_moment_series,
    progeny_moment_table,
    check_cumulant_condition,
    verify_bci,
    verify_gaussian_bound,
    Region,
)

from progeny_oracles import progeny_moment_closed

SEED = 1
H_GRID = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


class criterion:
    """Collects failures, prints one PASS/FAIL line, enforces the budget."""

    def __init__(self, name, budget_s):
        self.name = name
        self.budget_s = budget_s
        self.failures = []

    def check(self, ok, label):
        if not ok:
            self.failures.append(label)

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is not None:
            print(f"[FAIL] {self.name} ({elapsed:.2f}s): raised {exc!r}")
            return False
        if elapsed > self.budget_s:
            self.failures.append(f"took {elapsed:.2f}s > budget {self.budget_s}s")
        verdict = "PASS" if not self.failures else "FAIL"
        print(f"[{verdict}] {self.name} ({elapsed:.2f}s)")
        assert not self.failures, f"{self.name}: {self.failures}"
        return False


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def test_criterion_01_moment_engine():
    with criterion("criterion 01 moment engine", 1.0) as c:
        for h in H_GRID:
            law = PoissonMean(h)
            for n, got in enumerate(progeny_moment_table(law, 4).moments, 1):
                r = rel_err(got, progeny_moment_closed(law, n))
                c.check(r <= 1e-12, f"h={h} n={n} rel={r}")
        table = progeny_moment_table(PoissonMean(0.5), 4).moments
        for n, want in [(2, 8.0), (3, 64.0), (4, 832.0)]:
            c.check(rel_err(table[n - 1], want) <= 1e-12, f"golden n={n}")


def test_criterion_02_series_oracle():
    with criterion("criterion 02 series oracle", 5.0) as c:
        for h in H_GRID:
            law = PoissonMean(h)
            for m, rec in enumerate(progeny_moment_table(law, 4).moments, 1):
                series = progeny_moment_series(law, m, 1e-10)
                c.check(rel_err(series, rec) <= 1e-7, f"borel h={h} m={m}")
            total = sum(law.pmf(k) for k in range(1, 4000))
            c.check(abs(total - 1.0) <= 1e-10, f"borel normalization h={h}")
        binom_grid = [(1, 0.3), (1, 0.6), (1, 0.9), (2, 0.25), (2, 0.45),
                      (3, 0.3), (4, 0.2), (5, 0.15)]
        for h, p in binom_grid:
            law = Binomial(h, p)
            for m, rec in enumerate(progeny_moment_table(law, 4).moments, 1):
                series = progeny_moment_series(law, m, 1e-10)
                c.check(rel_err(series, rec) <= 1e-7, f"consul h={h} p={p} m={m}")
            total = sum(law.pmf(k) for k in range(1, 4000))
            c.check(abs(total - 1.0) <= 1e-10, f"consul normalization {h},{p}")


def test_criterion_03_certified_exponential_sums():
    with criterion("criterion 03 certified exponential sums", 1.0) as c:
        for nu in (0.5, 1.0, 2.0):
            for m in (2, 3, 4, 5, 6):
                cs = abel_plana_bound(nu, m)
                true = 0.0
                for k in range(1, 200000):
                    term = math.exp(-nu * k) * k ** (m - 1)
                    true += term
                    if k > 10 and term < 1e-18 * true:
                        break
                c.check(cs.lower <= true <= cs.upper, f"containment nu={nu} m={m}")
        c.check(abel_plana_bound(1.0, 2).center == 1.0, "(1,2) center")


def test_criterion_04_frozen_goldens():
    with criterion("criterion 04 frozen goldens", 1.0) as c:
        r = cluster_bounds_for_law(Region(1.0, 1e6), PoissonMean(0.5), ConstantMark(1.0))
        c.check(abs(r.dw_bound - 0.064) <= 1e-12, "hawkes dw")
        c.check(abs(r.dk_bound - 0.2208440) <= 1e-6, "hawkes dk")
        d = delta_poisson(0.5, 1e4).delta
        c.check(abs(d - 0.3602758265793161) <= 1e-6, "delta poisson")
        d = delta_binomial(2, 0.25, 1e4).delta
        c.check(abs(d - 0.7614800) <= 1e-4, "delta binomial")
        rep = insurance_tail_report(1.0, 0.5, 1.0, 64.0, 2.0)
        c.check(rep.t_threshold == 64.0, "insurance threshold exact")
        c.check(abs(rep.bound - 2.0 * math.exp(-1.0)) <= 1e-12, "insurance bound")


def test_criterion_05_compound_poisson_distance():
    with criterion("criterion 05 compound-Poisson distances", 30.0) as c:
        model = ClusterModel(1.0, 1e4, FactorialMoments((0.0, 0.0, 0.0, 0.0)))
        report = verify_gaussian_bound(model, 2000, seed=SEED)
        d = report.details
        c.check(d["bounds"]["dk_bound"] == 0.04, "dk bound value")
        c.check(d["bounds"]["dw_bound"] == 0.01, "dw bound value")
        c.check(d["dk_emp"] <= 0.04 + dkw_margin(2000, 0.001), "d_K within bound")
        c.check(d["dw_emp"] <= 0.01 + 0.05, "d_W within bound")
        c.check(report.passed, "report verdict")


def test_criterion_06_hawkes_moments():
    with criterion("criterion 06 cluster window moments", 60.0) as c:
        model = ClusterModel(1.0, 1e4, PoissonMean(0.5), delay_rate=1.0)
        x = np.concatenate(
            [model.sample(np.random.default_rng([SEED, 0, i]), 1) for i in range(500)]
        )
        mean_ratio = float(x.mean()) / (1e4 / 0.5)
        var_ratio = float(x.var(ddof=1)) / (1e4 / 0.5 ** 3)
        c.check(0.98 <= mean_ratio <= 1.02, f"mean ratio {mean_ratio:.5f}")
        c.check(0.85 <= var_ratio <= 1.15, f"var ratio {var_ratio:.5f}")


def test_criterion_07_tail_bound_verification():
    with criterion("criterion 07 concentration tails", 120.0) as c:
        model = ClusterModel(1.0, 1e4, PoissonMean(0.5), delay_rate=1.0)
        delta = delta_poisson(0.5, 1e4).delta
        xs = [0.5 * k for k in range(9)]
        positive = verify_bci(model, 0.0, delta, xs, 5000, seed=SEED)
        c.check(positive.details["tails_ok"], "no tail exceeds its bound")
        c.check(positive.details["cumulant"]["all_pass"], "cumulant growth holds")
        c.check(positive.passed, "calibrated delta accepted")
        negative = verify_bci(model, 0.0, delta * 1e6, xs, 5000, seed=SEED)
        c.check(not negative.passed, "inflated delta rejected")


def test_criterion_08_cumulant_suite():
    with criterion("criterion 08 cumulant suite", 1.0) as c:
        marks = mark_abs_moments(ConstantMark(1.0), 12)
        for h in H_GRID:
            table = progeny_moment_table(PoissonMean(h), 12).moments
            for ll in (1e2, 1e4, 1e6):
                delta = delta_poisson(h, ll).delta
                rep = check_cumulant_condition(marks, table, ll, 0.0, delta, 12)
                c.check(rep.all_pass, f"h={h} lambda_leb={ll} fail={rep.first_fail}")


def test_criterion_09_interference():
    with criterion("criterion 09 interference", 60.0) as c:
        # closed attenuation integrals vs 2-D quadrature in polar coordinates
        for R in (0.5, 1.0, 2.0):
            for alpha in (3.0, 4.0):
                for m in (1, 2, 3, 4):
                    quad, _ = integrate.dblquad(
                        lambda r, theta: r * max(R, r) ** (-alpha * m),
                        0.0,
                        2.0 * math.pi,
                        0.0,
                        np.inf,
                    )
                    closed = hertzian_integral(R, alpha, m)
                    c.check(
                        rel_err(closed, quad) <= 1e-6, f"quadrature R={R} a={alpha} m={m}"
                    )
        model = InterferenceModel(
            50.0, 1.0, 4.0, power=ExponentialMark(1.0), tail_eps=10.0
        )
        report = verify_gaussian_bound(model, 10000, seed=SEED)
        samples_mean = (
            report.details["standardization"]["mean"]
            + report.details["standardization"]["sd"] * float(np.mean(report.samples))
        )
        campbell = 100.0 * math.pi
        sd_raw = report.details["standardization"]["sd"] * float(
            np.std(report.samples, ddof=1)
        )
        c.check(
            abs(samples_mean - campbell) <= 4.0 * sd_raw / math.sqrt(10000),
            "sample mean within 4 SE of Campbell",
        )
        c.check(
            report.details["dk_emp"]
            <= report.details["bounds"]["dk_bound"] + dkw_margin(10000, 0.001),
            "d_K within bound",
        )


def test_criterion_10_calibration_envelope():
    with criterion("criterion 10 calibration envelope", 1.0) as c:
        xs = np.linspace(1e-6, 1.0 - 1e-6, 10 ** 6)
        vals = xs * (xs - 1.0 - np.log(xs)) ** 2
        c.check(float(vals.max()) <= 8.0 / 9.0, f"max {float(vals.max())}")


def test_criterion_11_worker_determinism():
    with criterion("criterion 11 worker determinism", 60.0) as c:
        cases = [
            ["verify", "moments", "--offspring", "poisson:0.5",
             "--reps", "20000", "--seed", str(SEED)],
            ["verify", "gauss", "--scenario", "compound-poisson",
             "--lambda-leb", "1e3", "--reps", "500", "--seed", str(SEED)],
            ["verify", "bci", "--h", "0.5", "--T", "1e3",
             "--reps", "500", "--seed", str(SEED)],
            ["verify", "gauss", "--scenario", "interference", "--lambda", "50",
             "--R", "1", "--alpha", "4", "--power", "exp:1", "--tail-eps", "10",
             "--reps", "500", "--seed", str(SEED)],
        ]
        for args in cases:
            outs = []
            for w in ("1", "2", "8"):
                proc = subprocess.run(
                    [sys.executable, "-m", "chaos_bounds.cli", *args, "--workers", w],
                    capture_output=True,
                    text=True,
                )
                c.check(proc.returncode == 0, f"{args[1]} workers={w} exit")
                outs.append(proc.stdout)
            c.check(
                outs[0] == outs[1] == outs[2], f"{args[1]} byte-identical output"
            )
            c.check(json.loads(outs[0])["passed"] is True, f"{args[1]} verdict")
