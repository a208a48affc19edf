"""End-to-end CLI tests, mostly through subprocess: goldens, exit codes,
config files, seeding, and output determinism."""
import contextlib
import io
import json
import math
import os
import subprocess
import sys

import pytest

from chaos_bounds import (
    Binomial,
    CenteredGaussianMark,
    ConstantMark,
    CustomAbsMoments,
    DomainError,
    ExponentialMark,
    FactorialMoments,
    PoissonMean,
    UniformMark,
    UnknownFamily,
    cli,
)

CLI = [sys.executable, "-m", "chaos_bounds.cli"]


def run_cli(*args, env_extra=None):
    env = os.environ.copy()
    env.pop("CHAOS_BOUNDS_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env
    )


def run_main(*args):
    """Run cli.main in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_json(*args, **kw):
    proc = run_cli(*args, **kw)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# ---------------------------------------------------------------------------
# calculator goldens


def test_moments_gw_golden():
    out = run_json("moments", "gw", "--offspring", "poisson:0.5", "--n", "4")
    assert out["offspring"] == {"family": "poisson", "h": 0.5}
    want = [2.0, 8.0, 64.0, 832.0]
    assert all(abs(a - b) <= 1e-9 * b for a, b in zip(out["moments"], want))


def test_bounds_hawkes_poisson_golden():
    out = run_json(
        "bounds", "hawkes-poisson",
        "--lambda", "1", "--leb", "1e6", "--h", "0.5", "--mark", "const:1",
    )
    assert abs(out["dw_bound"] - 0.064) <= 1e-12
    assert abs(out["dk_bound"] - 0.22084441020371193) <= 1e-9
    assert out["vacuous"] is False
    assert out["inputs"]["kind"] == "hawkes-poisson"
    assert out["inputs"]["h"] == 0.5


def test_bounds_interference_golden():
    out = run_json(
        "bounds", "interference",
        "--lambda", "50", "--R", "1", "--alpha", "4", "--power", "exp:1",
    )
    assert abs(out["dw_bound"] - 0.13192267821378836) <= 1e-9
    assert abs(out["dk_bound"] - 0.5524694516006106) <= 1e-9


def test_delta_poisson_golden():
    out = run_json("delta", "poisson", "--h", "0.5", "--lambda-leb", "1e4")
    assert abs(out["delta"] - 0.3602758265793161) <= 1e-9
    assert out["case_label"] == "(ii)"


def test_delta_binomial_golden():
    out = run_json(
        "delta", "binomial", "--h", "2", "--p", "0.25", "--lambda-leb", "1e4"
    )
    assert abs(out["delta"] - 0.761479934184997) <= 1e-9
    assert out["case_label"] == "(ii)2"


def test_tail_insurance_golden():
    out = run_json(
        "tail", "insurance",
        "--lambda", "1", "--h", "0.5", "--mu", "1", "--T", "64", "--k", "2",
    )
    assert out["t_threshold"] == 64.0
    assert abs(out["bound"] - 0.7357588823428847) <= 1e-12
    assert out["simplified"] is True


def test_tail_bci_and_nacc_and_mdp():
    out = run_json("tail", "bci", "--gamma", "0", "--delta", "100", "--x", "10")
    assert abs(out["bound"] - 7.453306344157342e-06) <= 1e-15
    out = run_json("tail", "nacc", "--gamma", "1", "--delta", "64")
    assert out["window"][0] == 0.0 and abs(out["window"][1] - 4.0) <= 1e-9
    out = run_json("tail", "mdp", "--lower", "1", "--upper", "2")
    assert out["rate_inf"] == 0.5


def test_tail_interval():
    out = run_json(
        "tail", "interval",
        "--lambda", "1", "--h", "0.5", "--mu", "1", "--T", "1e4", "--x", "4",
    )
    assert out["center"] == 20000.0
    assert abs(out["prob_lower_bound"] - 0.26424111765711533) <= 1e-9


def test_tail_cumulant():
    out = run_json(
        "tail", "cumulant",
        "--offspring", "poisson:0.5", "--lambda-leb", "1e4", "--delta", "0.36",
    )
    assert out["all_pass"] is True
    assert out["m_checked"] == [3, 12]


def test_moments_pmf_and_abel_and_series():
    out = run_json("moments", "pmf", "--offspring", "binomial:2,0.25", "--k-max", "2")
    assert abs(out["pmf"][1] - 0.2109375) <= 1e-12
    out = run_json("moments", "abel", "--nu", "1", "--m", "2")
    assert out["center"] == 1.0
    assert abs(out["radius"] - 0.5209522534684663) <= 1e-12
    out = run_json("moments", "series", "--offspring", "poisson:0.5", "--m", "3")
    assert abs(out["value"] - 64.0) <= 1e-5
    out = run_json("moments", "factorial", "--offspring", "binomial:2,0.25", "--n", "3")
    assert out["factorial_moments"] == [0.5, 0.125, 0.0]


# ---------------------------------------------------------------------------
# exit codes


def test_supercritical_is_domain_error():
    proc = run_cli(
        "bounds", "hawkes-binomial",
        "--lambda", "1", "--leb", "1e4", "--h", "2", "--p", "0.6",
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_usage_errors_exit_1():
    assert run_cli("bogus").returncode == 1
    assert run_cli("bounds").returncode == 1
    # missing required flag
    proc = run_cli("delta", "poisson", "--h", "0.5")
    assert proc.returncode == 1
    assert "--lambda-leb" in proc.stderr
    # bad enum value
    assert run_cli("verify", "gauss", "--scenario", "nope").returncode == 1


def test_domain_errors_exit_2():
    assert run_cli(
        "delta", "poisson", "--h", "0.5", "--lambda-leb", "-3"
    ).returncode == 2
    assert run_cli(
        "moments", "gw", "--offspring", "weibull:1", "--n", "2"
    ).returncode == 2
    assert run_cli(
        "bounds", "hawkes-poisson",
        "--lambda", "1", "--leb", "1", "--h", "0.5", "--mark", "const",
    ).returncode == 2


def test_moment_overflow_exit_2():
    # E Z^n of the Poisson(0.5) cascade leaves float64 at n = 130
    proc = run_cli("moments", "gw", "--offspring", "poisson:0.5", "--n", "200")
    assert proc.returncode == 2
    assert "E Z^130 " in proc.stderr
    assert proc.stdout == ""


def test_custom_mark_needs_an_explicit_gamma():
    argv = "tail cumulant --offspring poisson:0.5 --lambda-leb 1e4 --delta 0.36 --mark custom:1,2,6,24"
    code, out, err = run_main(*argv.split())
    assert code == 2 and out == ""
    assert "pass gamma explicitly" in err
    code, out, err = run_main(*argv.split(), "--gamma", "1", "--m-max", "4")
    assert code == 0 and json.loads(out)["gamma"] == 1.0


@pytest.mark.parametrize("argv", [
    # lam * leb underflows to 0
    "bounds hawkes-poisson --lambda 1e-200 --leb 1e-200 --h 0.5",
    # E M^2 = 1e-320, whose 3/2 power underflows to 0
    "bounds compound-cluster --lambda 1 --leb 1e4 --ez3 1 --ez4 1 --mark const:1e-160",
    "bounds interference --lambda 1 --R 1 --alpha 4 --power const:1e-160",
    # lam * leb overflows, which used to print a bound of 0
    "bounds hawkes-poisson --lambda 1e200 --leb 1e200 --h 0.5",
    # i2^(3/2) overflows as a Python float
    "bounds shot-noise --i2 1e300 --i3 1 --i4 1",
])
def test_normalizer_out_of_float_range_exit_2(argv):
    code, out, err = run_main(*argv.split())
    assert code == 2, err
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    # a finite normalizer whose quotient overflows: dk is infinite
    "bounds first-chaos --m3 1e308 --m4 1e308",
    "bounds shot-noise --i2 1e-100 --i3 1e200 --i4 1",
    "bounds compound-cluster --lambda 1 --leb 1e-300 --ez3 1e300 --ez4 1",
    "bounds hawkes-poisson --lambda 1 --leb 1e-320 --h 0.5",
    "bounds hawkes-binomial --lambda 1 --leb 1e-320 --h 3 --p 0.2",
    "bounds interference --lambda 1e-310 --R 1 --alpha 4",
    # an infinite x, and a window end past float range
    "tail interval --lambda 1 --h 0.5 --mu 1 --T 1e4 --x inf",
    "tail bci --gamma 0 --delta 1 --x inf",
    "tail nacc --gamma 0 --delta 1e308 --c0 10",
    # finite inputs whose interval center overflows
    "tail interval --lambda 1 --h 0.5 --mu 1e100 --T 1e250 --x 1",
    # an insurance threshold past float range, and one whose denominator underflows to 0
    "tail insurance --lambda 1e-300 --h 0.5 --mu 1 --T 64 --k 1.0000001",
    "tail insurance --lambda 1e-310 --h 0.5 --mu 1 --T 64 --k 1.0000001",
    # insurance exponents past float range
    "tail insurance --lambda 1e300 --T 1e300 --h 0.5 --mu 1 --k 2",
    # a finite edge whose rate edge^2 / 2 overflows; the infinite endpoint is allowed
    "tail mdp --lower=1e200 --upper=inf",
    # an infinite tolerance, nu or constant mark value
    "moments series --offspring poisson:0.5 --m 3 --rel-tol inf",
    "moments abel --nu inf --m 3",
    "tail cumulant --offspring poisson:0.5 --lambda-leb 1e4 --delta 0.36 --mark const:inf",
    # a Poisson(h) offspring mean too close to criticality (a half-width of
    # 5.7e17), and a subnormal one
    "tail interval --lambda 1 --h 0.9999999999 --mu 1 --T 1e4 --x 4",
    "tail interval --lambda 1 --h 1e-310 --mu 1 --T 1e4 --x 4",
    "tail insurance --lambda 1 --h 0.9999999999 --mu 1 --T 64 --k 2",
])
def test_bound_or_interval_past_float_range_exit_2(argv):
    # each of these used to exit 0, most printing JSON's non-standard Infinity
    code, out, err = run_main(*argv.split())
    assert code == 2, err
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    "bounds hawkes-poisson --lambda 1 --leb 1e4 --h 0.5 --mark const:nan",
    "verify gauss --scenario hawkes-poisson --h 0.5 --T 10 --reps 20 --seed 1 --mark const:nan",
    "tail cumulant --offspring poisson:0.5 --lambda-leb 1e4 --delta 0.36 --mark const:nan",
])
def test_nan_constant_mark_exit_2(argv):
    # rejected by the mark itself, not later as a missing E M^2
    code, out, err = run_main(*argv.split())
    assert code == 2 and out == ""
    assert "constant mark value must be finite" in err


@pytest.mark.parametrize("argv, dw, dk", [
    # lam |W| = 1e300: (lam |W| E M^2)^(3/2) would overflow
    ("bounds hawkes-poisson --lambda 1 --leb 1e300 --h 0.5", 6.4e-149, 2.2084441020371192e-148),
    # E P^4 = 2.4e301: lam E P^4 i4 would overflow
    ("bounds interference --lambda 1e6 --R 0.1 --alpha 4 --power exp:1e75",
     0.009328342035726057, 0.03906548956252048),
])
def test_bounds_stay_in_float_range_at_extreme_scales(argv, dw, dk):
    code, out, err = run_main(*argv.split())
    assert code == 0, err
    got = json.loads(out)
    assert math.isclose(got["dw_bound"], dw, rel_tol=1e-12)
    assert math.isclose(got["dk_bound"], dk, rel_tol=1e-12)


@pytest.mark.parametrize("argv", [
    # E M^4 = 1e400
    "bounds compound-cluster --lambda 1 --leb 1e4 --ez3 1 --ez4 1 --mark const:1e100",
    "bounds hawkes-poisson --lambda 1 --leb 1e4 --h 0.5 --mark gauss:1e100",
    "bounds interference --lambda 1 --R 1 --alpha 4 --power uniform:1e100",
    # E M^m = m! grows past float range as an int
    "tail cumulant --offspring poisson:0.5 --lambda-leb 1e4 --delta 1 --mark exp:1 --m-max 200",
    "tail insurance --lambda 1 --h 0.5 --mu 1 --T 64 --k 1e200",
    "tail interval --lambda 1 --h 0.5 --mu 1e200 --T 1e4 --x 4",
    "moments abel --nu 1e-5 --m 200",
    "verify gauss --scenario compound-poisson --lambda-leb 100 --mark const:1e200 --reps 10",
])
def test_float_overflow_exit_2(argv):
    code, out, err = run_main(*argv.split())
    assert code == 2, err
    assert out == ""
    assert err == "error: a value leaves float range\n"


@pytest.mark.parametrize("argv", [
    "bounds first-chaos --m3 nan --m4 1",
    "bounds first-chaos --m3 1 --m4 nan",
    "tail bci --gamma nan --delta 1 --x 1",
    "tail bci --gamma 0 --delta 1 --x nan",
    "tail nacc --gamma nan --delta 64",
    "tail interval --lambda 1 --h 0.5 --mu 1 --T 1e4 --x nan",
    "tail cumulant --offspring poisson:0.5 --lambda-leb 1e4 --delta 0.36 --gamma nan",
    "delta poisson --h 0.5 --lambda-leb 1e4 --gamma nan",
    "delta binomial --h 2 --p 0.25 --lambda-leb 1e4 --gamma nan",
])
def test_nan_input_exit_2(argv):
    code, out, err = run_main(*argv.split())
    assert code == 2, err
    assert out == ""
    assert err.startswith("error: ") and err.endswith("must be >= 0\n")


@pytest.mark.parametrize("argv", [
    "bounds compound-cluster --lambda 1 --leb 1e4 --ez3 -1 --ez4 832",
    "bounds shot-noise --i2 1 --i3 -1 --i4 1",
])
def test_negative_moment_exit_2(argv):
    code, out, err = run_main(*argv.split())
    assert code == 2, err
    assert out == ""
    assert err.startswith("error: ") and err.endswith("moments must be >= 0\n")


@pytest.mark.parametrize("argv", [
    "tail bci --gamma inf --delta 1 --x 1",
    "tail nacc --gamma inf --delta 64",
    "delta poisson --h 0.5 --lambda-leb 1e4 --gamma inf",
    "bounds first-chaos --m3 inf --m4 1",
    "bounds first-chaos --m3 1 --m4 inf",
])
def test_infinite_input_exit_2(argv):
    # these used to print a report holding JSON's non-standard Infinity
    code, out, err = run_main(*argv.split())
    assert code == 2, err
    assert out == ""
    assert err.startswith("error: ") and err.endswith("must be finite\n")


@pytest.mark.parametrize("argv", [
    # rho = 5.6e4 puts 9.9e9 expected points in a field
    "verify gauss --scenario interference --lambda 1 --R 1 --alpha 2.5 --tail-eps 1e-3",
    # and rho = 4e40, 5e81 points, past numpy's Poisson range
    "verify gauss --scenario interference --lambda 1 --R 1 --alpha 2.1 --tail-eps 1e-6",
    # 1e20 expected immigrants in a window
    "verify gauss --scenario hawkes-poisson --h 0.5 --T 1e20",
])
def test_population_past_the_cap_exit_2(argv):
    code, out, err = run_main(*argv.split(), "--reps", "2", "--seed", "1")
    assert code == 2, err
    assert out == ""
    assert err.startswith("error: ") and err.endswith(" is above the population cap 10000000\n")
    assert err.count("\n") == 1


GAUSS_SCENARIOS = {  # each verify gauss scenario with its required flags
    "compound-poisson": "--lambda-leb 100",
    "hawkes-poisson": "--h 0.5 --T 10",
    "hawkes-binomial": "--h 2 --p 0.25 --T 10",
    "interference": "--lambda 1 --R 1 --alpha 4",
}


# a law flag is parsed as argparse reads it, whether or not the scenario uses
# the law: a hawkes or compound-poisson --power used to be ignored, with exit 0
@pytest.mark.parametrize("law", ["--mark bogus", "--power bogus", "--power exp:-1"])
@pytest.mark.parametrize("scenario", GAUSS_SCENARIOS)
def test_every_given_law_flag_is_parsed(scenario, law):
    argv = f"verify gauss --scenario {scenario} {GAUSS_SCENARIOS[scenario]} {law} --reps 10 --seed 1"
    code, out, err = run_main(*argv.split())
    assert code == 2 and out == "", err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_a_law_flag_from_a_config_file_is_parsed(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"power": "bogus"}))
    argv = f"verify gauss --scenario hawkes-poisson {GAUSS_SCENARIOS['hawkes-poisson']} --reps 10"
    code, out, err = run_main(*argv.split(), "--config", str(cfg))
    assert code == 2 and out == "", err
    assert err.startswith("error: unknown mark string 'bogus'") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# the law-string grammar: family:p1,p2,... for --mark, --power and --offspring


@pytest.mark.parametrize("parse, text, law", [
    (cli.parse_mark, "const:1.5", ConstantMark(1.5)),
    (cli.parse_mark, "uniform:2", UniformMark(2.0)),
    (cli.parse_mark, " EXP :2", ExponentialMark(2.0)),
    (cli.parse_mark, "Gauss: 0.5", CenteredGaussianMark(0.5)),
    (cli.parse_mark, "custom:1,2,6", CustomAbsMoments((1.0, 2.0, 6.0))),
    (cli.parse_offspring, "poisson:0.5", PoissonMean(0.5)),
    (cli.parse_offspring, " Binomial :3,0.2", Binomial(3, 0.2)),
    (cli.parse_offspring, "factorial:0.5", FactorialMoments((0.5,))),
    (cli.parse_offspring, "FACTORIAL:0.5,0.1", FactorialMoments((0.5, 0.1))),
])
def test_each_law_family_builds_its_law(parse, text, law):
    got = parse(text)
    assert got == law and type(got) is type(law)
    if isinstance(law, Binomial):
        assert type(got.h) is int


@pytest.mark.parametrize("parse, what, text", [
    (cli.parse_mark, "mark", "const"),
    (cli.parse_mark, "mark", "const:1,2"),
    (cli.parse_mark, "mark", "uniform:1,2"),
    (cli.parse_mark, "mark", "exp:"),
    (cli.parse_mark, "mark", "gauss:1,2"),
    (cli.parse_mark, "mark", "custom:1"),
    (cli.parse_mark, "mark", "poisson:0.5"),
    (cli.parse_offspring, "offspring", "poisson"),
    (cli.parse_offspring, "offspring", "poisson:0.5,0.2"),
    (cli.parse_offspring, "offspring", "binomial:3"),
    (cli.parse_offspring, "offspring", "binomial:3,0.2,0.1"),
    (cli.parse_offspring, "offspring", "factorial:"),
    (cli.parse_offspring, "offspring", "exp:1"),
])
def test_an_unknown_family_or_parameter_count_is_an_unknown_law(parse, what, text):
    with pytest.raises(UnknownFamily, match=f"^unknown {what} string {text!r}; expected "):
        parse(text)


@pytest.mark.parametrize("parse, what, text", [
    (cli.parse_mark, "mark", "exp:1,"),
    (cli.parse_mark, "mark", "custom:1,,2"),
    (cli.parse_mark, "mark", "exp:abc"),
    (cli.parse_offspring, "offspring", "poisson:,0.5"),
    (cli.parse_offspring, "offspring", "factorial:0.5,,0.1"),
    (cli.parse_offspring, "offspring", "binomial:3,abc"),
])
def test_an_empty_or_non_numeric_parameter_is_malformed(parse, what, text):
    with pytest.raises(UnknownFamily, match=f"^bad {what} parameters in {text!r}$"):
        parse(text)


def test_a_binomial_trial_count_must_be_an_integer():
    with pytest.raises(DomainError, match="binomial trial count must be an integer, got 2.5"):
        cli.parse_offspring("binomial:2.5,0.2")
    code, out, err = run_main("moments", "gw", "--offspring", "binomial:2.5,0.2", "--n", "2")
    assert (code, out) == (2, "")
    assert err == "error: binomial trial count must be an integer, got 2.5\n"


# an empty parameter used to be dropped from an offspring string, with exit 0:
# factorial:0.5,,0.1 read as E(P)_1 = 0.5, E(P)_2 = 0.1
@pytest.mark.parametrize("law", ["poisson:0.5,", "poisson:,0.5", "binomial:3,0.2,", "factorial:0.5,,0.1"])
def test_an_empty_offspring_parameter_exit_2(law):
    code, out, err = run_main("moments", "gw", "--offspring", law, "--n", "2")
    assert (code, out) == (2, "")
    assert err == f"error: bad offspring parameters in {law!r}\n"


def test_an_empty_offspring_parameter_from_a_config_file_exit_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"offspring": "factorial:0.5,,0.1"}))
    code, out, err = run_main("moments", "gw", "--n", "2", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == "error: bad offspring parameters in 'factorial:0.5,,0.1'\n"


def test_a_custom_mark_with_a_nan_moment_exit_2():
    argv = "tail cumulant --offspring poisson:0.5 --lambda-leb 1e4 --delta 0.36 --gamma 0 --mark custom:1,nan"
    code, out, err = run_main(*argv.split())
    assert (code, out) == (2, "")
    assert err == "error: absolute moments must be finite and >= 0\n"


# r = beta (1 - E P) squared underflows to 0: these used to end in a
# ZeroDivisionError traceback with exit 1
@pytest.mark.parametrize("beta", ["1e-300", "1e-170"])
@pytest.mark.parametrize("command", ["verify gauss --scenario hawkes-poisson", "verify bci"])
def test_a_delay_rate_whose_square_underflows_exit_2(command, beta):
    argv = f"{command} --h 0.5 --T 10 --reps 20 --seed 1 --beta {beta}"
    code, out, err = run_main(*argv.split())
    assert (code, out) == (2, "")
    assert err.startswith(f"error: delay rate {beta} is too small") and err.count("\n") == 1


def test_moments_abel_rejects_m_before_summing(monkeypatch):
    def no_sum(*args):
        raise AssertionError("computed the sum before checking --m")

    monkeypatch.setattr(cli, "abel_plana_bound", no_sum)
    code, out, err = run_main("moments", "abel", "--nu", "1", "--m", "1e6")
    assert code == 2, err
    assert out == "" and err == f"error: --m 1000000 is above the limit of {cli.MAX_SIZE}\n"


# --m-max 2 is below the first order, and at --m-max 200 E Z^130 leaves
# float64 range: the cumulant check rejects both before any draw
@pytest.mark.parametrize("grid", [
    ("--x-max", "inf"), ("--x-step", "1e-6"), ("--m-max", "2"), ("--m-max", "200"),
])
def test_verify_bci_rejects_grid_before_simulating(grid, monkeypatch):
    from chaos_bounds import simulate

    def no_simulation(*args, **kw):
        raise AssertionError("simulated before checking the deterministic inputs")

    monkeypatch.setattr(simulate, "_simulate_batch", no_simulation)
    code, out, err = run_main("verify", "bci", "--h", "0.5", "--T", "10", "--reps", "10", *grid)
    assert code == 2, err
    assert out == "" and "error: " in err


@pytest.mark.parametrize("argv", [
    "verify gauss --scenario hawkes-poisson --h 0.5 --T 10",
    "verify bci --h 0.5 --T 10",
])
def test_reps_below_two_exit_2(argv):
    code, out, err = run_main(*argv.split(), "--reps", "1")
    assert code == 2
    assert out == "" and err == "error: n_reps must be >= 2\n"


def test_binomial_moments_past_float_range_of_p_powers():
    # p^i is subnormal from i = 77 on and (h)_i overflows from i = 104 on,
    # where (h)_i p^i read NaN and made E Z^104 look out of float range
    code, out, err = run_main("moments", "factorial", "--offspring", "binomial:1000,1e-4", "--n", "200")
    assert code == 0, err
    assert "NaN" not in out and "Infinity" not in out
    code, out, err = run_main("moments", "gw", "--offspring", "binomial:1000,1e-4", "--n", "104")
    assert code == 0, err
    assert json.loads(out)["moments"][-1] == pytest.approx(2.342486513403942e148, rel=1e-9)


def test_verify_moments_rejects_law_before_simulating(monkeypatch):
    # factorial:0.5 stores too few moments for the exact standard errors,
    # which need E Z^1..E Z^6, and that is found before any draw
    from chaos_bounds import simulate

    def no_simulation(*args, **kw):
        raise AssertionError("drew cascades before computing the theory moments")

    monkeypatch.setattr(simulate, "_replicate", no_simulation)
    code, out, err = run_main("verify", "moments", "--offspring", "factorial:0.5", "--reps", "10")
    assert code == 2, err
    assert out == "" and err == "error: law stores 1 factorial moments, 6 requested\n"


def test_the_zero_offspring_law_has_every_moment():
    # factorial:0 stores E(P)_1 = 0, so P = 0, Z = 1 and every moment is 1
    code, out, err = run_main("moments", "gw", "--offspring", "factorial:0", "--n", "3")
    assert code == 0 and json.loads(out)["moments"] == [1.0] * 3, err
    code, out, err = run_main("verify", "moments", "--offspring", "factorial:0", "--reps", "2000", "--seed", "1")
    assert code == 0, err


@pytest.mark.parametrize(
    "argv",
    [
        "moments factorial --offspring poisson:0.5 --n 10001",
        "moments gw --offspring poisson:0.5 --n 10001",
        "moments pmf --offspring poisson:0.5 --k-max 10001",
        "tail cumulant --offspring poisson:0.5 --lambda-leb 1e4 --delta 0.36 --m-max 10001",
        "verify bci --h 0.5 --T 10 --reps 10 --m-max 10001",
    ],
)
def test_order_and_length_flags_are_capped(argv):
    code, out, err = run_main(*argv.split())
    assert code == 2 and out == "", err
    assert f"above the limit of {cli.MAX_SIZE}" in err


def test_order_flag_at_the_cap_runs():
    code, out, err = run_main("moments", "factorial", "--offspring", "poisson:0.5", "--n", "10000")
    assert code == 0, err
    assert len(json.loads(out)["factorial_moments"]) == cli.MAX_SIZE


HAWKES_LAWS = [
    "poisson:0.1", "poisson:0.3", "poisson:0.5", "poisson:0.7", "poisson:0.9",
    "binomial:1,0.3", "binomial:1,0.7", "binomial:2,0.25", "binomial:3,0.2", "binomial:5,0.15",
]


@pytest.mark.parametrize("law", HAWKES_LAWS)
def test_hawkes_bounds_echo_the_gw_moments(law):
    # the cluster bounds and moments gw read E Z^3, E Z^4 from one recursion
    family, _, params = law.partition(":")
    h, _, p = params.partition(",")
    law_flags = ["--h", h] + (["--p", p] if p else [])
    code, out, err = run_main("bounds", f"hawkes-{family}", "--lambda", "1", "--leb", "1e6", *law_flags)
    assert code == 0, err
    echo = json.loads(out)["inputs"]
    code, out, err = run_main("moments", "gw", "--offspring", law, "--n", "4")
    assert code == 0, err
    moments = json.loads(out)["moments"]
    assert (echo["ez3"], echo["ez4"]) == (moments[2], moments[3])


def test_verification_failure_exit_3_with_report():
    proc = run_cli(
        "verify", "bci",
        "--h", "0.5", "--T", "1e3", "--delta-scale", "1e6",
        "--reps", "200", "--seed", "1",
    )
    assert proc.returncode == 3
    out = json.loads(proc.stdout)
    assert out["passed"] is False
    assert out["details"]["cumulant"]["first_fail"] == 3
    assert out["details"]["delta_scale"] == 1e6


def test_verify_bci_positive_control():
    proc = run_cli(
        "verify", "bci", "--h", "0.5", "--T", "1e3", "--reps", "300", "--seed", "1"
    )
    assert proc.returncode == 0, proc.stdout
    out = json.loads(proc.stdout)
    assert out["passed"] is True
    assert out["details"]["delta_scale"] == 1.0


def test_verify_moments_cli():
    proc = run_cli(
        "verify", "moments", "--offspring", "poisson:0.5",
        "--reps", "20000", "--seed", "1",
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True


def test_verify_gauss_cli():
    proc = run_cli(
        "verify", "gauss", "--scenario", "compound-poisson",
        "--lambda-leb", "1e3", "--reps", "500", "--seed", "1",
    )
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["passed"] is True and out["details"]["dk_ok"] is True


def test_compound_poisson_rejects_lambda():
    proc = run_cli(
        "verify", "gauss", "--scenario", "compound-poisson",
        "--lambda-leb", "1e3", "--lambda", "2", "--reps", "10",
    )
    assert proc.returncode == 1
    assert "--scenario compound-poisson does not read --lambda" in proc.stderr


# each scenario with a well-formed flag that its row of cli._SCENARIOS lacks
UNREAD_FLAGS = [
    ("hawkes-poisson", ("--h", "0.5", "--T", "10"), ("--R", "3")),
    ("hawkes-binomial", ("--h", "2", "--p", "0.25", "--T", "10"), ("--power", "exp:1")),
    ("compound-poisson", ("--lambda-leb", "100"), ("--beta", "2")),
    ("interference", ("--lambda", "1", "--R", "1", "--alpha", "4"), ("--h", "0.5")),
]


@pytest.mark.parametrize("scenario, flags, unread", UNREAD_FLAGS, ids=[c[0] for c in UNREAD_FLAGS])
def test_a_flag_the_scenario_does_not_read_is_a_usage_error(scenario, flags, unread):
    argv = ("verify", "gauss", "--scenario", scenario, *flags, "--reps", "20", "--seed", "1")
    assert run_main(*argv)[0] in (0, 3)  # the scenario runs without the flag
    code, out, err = run_main(*argv, *unread)
    assert code == 1 and out == ""
    assert err.endswith(f"--scenario {scenario} does not read {unread[0]}\n")


def test_a_config_key_the_scenario_does_not_read_is_a_usage_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"beta": 2}))
    code, out, err = run_main(
        "verify", "gauss", "--scenario", "compound-poisson", "--lambda-leb", "100",
        "--reps", "20", "--config", str(cfg),
    )
    assert code == 1 and out == ""
    assert err.endswith("--scenario compound-poisson does not read --beta\n")


# ---------------------------------------------------------------------------
# seeding, config, outputs


def test_env_seed_matches_flag():
    args = ("verify", "moments", "--offspring", "poisson:0.3", "--reps", "2000")
    via_env = run_cli(*args, env_extra={"CHAOS_BOUNDS_SEED": "7"})
    via_flag = run_cli(*args, "--seed", "7")
    assert via_env.stdout == via_flag.stdout
    default = run_cli(*args)
    assert default.stdout != via_flag.stdout


def test_env_seed_bad_value():
    proc = run_cli(
        "verify", "moments", "--offspring", "poisson:0.3", "--reps", "10",
        env_extra={"CHAOS_BOUNDS_SEED": "xyz"},
    )
    assert proc.returncode == 2


def test_env_seed_ignored_by_calculators():
    # only the verify commands read a seed, so a bad one cannot fail a calculator
    args = ("tail", "bci", "--gamma", "0", "--delta", "100", "--x", "10")
    bad = run_cli(*args, env_extra={"CHAOS_BOUNDS_SEED": "xyz"})
    assert bad.returncode == 0, bad.stderr
    assert bad.stdout == run_cli(*args).stdout


def test_config_file_merge(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"h": 0.5, "lambda-leb": 1e4}))
    out = run_json("delta", "poisson", "--config", str(cfg))
    assert abs(out["delta"] - 0.3602758265793161) <= 1e-9
    # explicit flags beat the file
    out = run_json("delta", "poisson", "--config", str(cfg), "--h", "0.1")
    assert out["case_label"] == "(i)"


def test_config_unknown_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"h": 0.5, "lambda-leb": 100, "bogus": 1}))
    proc = run_cli("delta", "poisson", "--config", str(cfg))
    assert proc.returncode == 1
    assert "bogus" in proc.stderr


def test_config_not_object(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert run_cli("delta", "poisson", "--config", str(cfg)).returncode == 1


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (("bounds", "hawkes-poisson", "--lambda", "1", "--leb", "1e6", "--h", "0.5"), "mark", "exp:2"),
        (("bounds", "interference", "--lambda", "50", "--R", "1", "--alpha", "4"), "power", "exp:1"),
    ],
    ids=["mark", "power"],
)
def test_config_mark_and_power_take_effect(tmp_path, argv, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    via_config = run_main(*argv, "--config", str(cfg))
    via_flag = run_main(*argv, f"--{key}", value)
    assert via_flag[0] == 0
    assert via_config == via_flag
    assert via_flag[1] != run_main(*argv)[1]  # the flag changes the report


def test_config_bad_value_is_usage_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"h": "abc", "lambda-leb": 1e4}))
    code, out, err = run_main("delta", "poisson", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert "usage:" in err and "--h" in err and "'abc'" in err


def test_config_integral_float_reps(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"offspring": "poisson:0.5", "reps": 1e3, "seed": 1}))
    code, out, _ = run_main("verify", "moments", "--config", str(cfg), "--workers", "1")
    assert code in (0, 3)  # statistical verdict, not under test here
    assert json.loads(out)["details"]["n_draws"] == 1000


@pytest.mark.parametrize("flag", ["--output", "--dump-samples"])
def test_unwritable_file_is_usage_error(tmp_path, flag):
    path = tmp_path / "no-such-dir" / "file"
    code, out, err = run_main(
        "verify", "moments", "--offspring", "poisson:0.5", "--reps", "50", "--seed", "1",
        flag, str(path),
    )
    assert code == 1
    assert json.loads(out)["details"]["n_draws"] == 50  # the report still went to stdout
    assert f"error: cannot write {path}" in err


def test_output_file(tmp_path):
    path = tmp_path / "report.json"
    proc = run_cli(
        "delta", "poisson", "--h", "0.5", "--lambda-leb", "1e4",
        "--output", str(path),
    )
    assert proc.returncode == 0
    assert path.read_text() == proc.stdout
    json.loads(proc.stdout)


def test_output_file_with_csv_format(tmp_path):
    # --output gets exactly what stdout gets, the CSV rows included
    path = tmp_path / "samples.csv"
    proc = run_cli(
        "verify", "moments", "--offspring", "poisson:0.4",
        "--reps", "50", "--seed", "11", "--format", "csv", "--output", str(path),
    )
    assert proc.returncode in (0, 3)  # statistical verdict, not under test here
    assert proc.stdout.startswith("seed_index,value\n")
    assert path.read_text() == proc.stdout


def test_dump_samples_and_csv_format(tmp_path):
    path = tmp_path / "samples.csv"
    args = (
        "verify", "moments", "--offspring", "poisson:0.4",
        "--reps", "50", "--seed", "11",
    )
    proc = run_cli(*args, "--dump-samples", str(path))
    assert proc.returncode in (0, 3)  # statistical verdict, not under test here
    text = path.read_text()
    assert text.startswith("seed_index,value\n")
    assert len(text.strip().split("\n")) == 51
    # --format csv streams the same rows to stdout
    proc2 = run_cli(*args, "--format", "csv")
    assert proc2.stdout == text


def test_byte_identical_across_workers_and_reruns():
    args = (
        "verify", "gauss", "--scenario", "compound-poisson",
        "--lambda-leb", "1e3", "--reps", "300", "--seed", "3",
    )
    base = run_cli(*args, "--workers", "1")
    rerun = run_cli(*args, "--workers", "1")
    two = run_cli(*args, "--workers", "2")
    eight = run_cli(*args, "--workers", "8")
    assert base.stdout == rerun.stdout == two.stdout == eight.stdout
    assert base.returncode == 0


def test_console_script_help():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "bounds" in proc.stdout and "verify" in proc.stdout
