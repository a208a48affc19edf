"""Command-line front end: every calculator and verification harness, with
reproducible machine-readable output.

Reports are JSON (keys sorted, no timestamps), so a fixed argv and seed give
byte-identical output.  Exit codes: 0 success, 1 usage error, 2 domain error,
3 verification failure (the report is still printed).

The RNG seed resolves as: --seed flag, else the CHAOS_BOUNDS_SEED environment
variable, else the fixed default 0xC0FFEE.  A JSON config file (--config) can
supply any flag of the chosen subcommand by its long name; explicit flags win
over the file, the file wins over built-in defaults.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

from .deviations import (
    bci_bound,
    check_cumulant_condition,
    delta_binomial,
    delta_poisson,
    insurance_tail_report,
    mark_gamma,
    mdp_rate_inf,
    nacc_window,
    total_loss_interval,
)
from .errors import ChaosBoundsError, DomainError, UnknownFamily
from .gaussian_bounds import (
    KernelMoments,
    Region,
    compound_cluster_bounds,
    first_chaos_bounds,
    hawkes_binomial_bounds,
    hawkes_poisson_bounds,
    hertzian_integral,
    interference_bounds,
    shotnoise_bounds,
)
from .marks import (
    CenteredGaussianMark,
    ConstantMark,
    CustomAbsMoments,
    ExponentialMark,
    UniformMark,
    mark_abs_moments,
)
from .progeny import (
    Binomial,
    FactorialMoments,
    PoissonMean,
    abel_plana_bound,
    borel_pmf,
    consul_pmf,
    factorial_moments,
    progeny_moment_series,
    progeny_moment_table,
)
from .simulate import (
    ClusterModel,
    InterferenceModel,
    samples_csv_text,
    verify_bci,
    verify_gaussian_bound,
    verify_moments,
    write_samples_csv,
)

DEFAULT_SEED = 0xC0FFEE
SEED_ENV_VAR = "CHAOS_BOUNDS_SEED"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this front end reserves 2 for domain
    errors, so remap usage problems to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@dataclass(frozen=True)
class RunConfig:
    """Post-merge run settings shared by every subcommand."""

    command: str
    seed: int
    reps: int
    workers: int
    output: str | None
    format: str
    dump_samples: str | None
    params: dict


def parse_mark(text: str):
    """Decode family:param mark strings (const:1, uniform:2, exp:1,
    gauss:0.5, custom:m1,m2,...)."""
    fam, _, rest = str(text).partition(":")
    fam = fam.strip().lower()
    try:
        params = [float(tok) for tok in rest.split(",")] if rest else []
    except ValueError:
        raise UnknownFamily(f"bad mark parameters in {text!r}")
    if len(params) == 1:
        if fam == "const":
            return ConstantMark(params[0])
        if fam == "uniform":
            return UniformMark(params[0])
        if fam == "exp":
            return ExponentialMark(params[0])
        if fam == "gauss":
            return CenteredGaussianMark(params[0])
    if fam == "custom" and len(params) >= 2:
        return CustomAbsMoments(tuple(params))
    raise UnknownFamily(
        f"unknown mark string {text!r}; expected const:v, uniform:d, exp:mean, "
        "gauss:sigma, or custom:m1,m2,..."
    )


def parse_offspring(text: str):
    """Decode family:param offspring strings (poisson:h, binomial:h,p,
    factorial:e1,e2,...)."""
    fam, _, rest = str(text).partition(":")
    fam = fam.strip().lower()
    toks = [t for t in rest.split(",") if t.strip()] if rest else []
    try:
        if fam == "poisson" and len(toks) == 1:
            return PoissonMean(float(toks[0]))
        if fam == "binomial" and len(toks) == 2:
            h = float(toks[0])
            if h != int(h):
                raise DomainError(f"binomial trial count must be an integer, got {h}")
            return Binomial(int(h), float(toks[1]))
        if fam == "factorial" and toks:
            return FactorialMoments(tuple(float(t) for t in toks))
    except ValueError:
        raise UnknownFamily(f"bad offspring parameters in {text!r}")
    raise UnknownFamily(
        f"unknown offspring string {text!r}; expected poisson:h, binomial:h,p, "
        "or factorial:e1,e2,..."
    )


def _json_default(obj):
    item = getattr(obj, "item", None)
    if callable(item):
        return item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _dest(flag: str) -> str:
    if flag == "--lambda":
        return "lam"
    return flag.lstrip("-").replace("-", "_")


def _require(args, *flags):
    missing = [f for f in flags if getattr(args, _dest(f)) is None]
    if missing:
        args.leaf_parser.error("missing required flag(s): " + ", ".join(missing))


def _as_int(args, flag, value):
    try:
        out = int(value)
    except (TypeError, ValueError):
        args.leaf_parser.error(f"{flag} must be an integer, got {value!r}")
    if isinstance(value, float) and value != out:
        args.leaf_parser.error(f"{flag} must be an integer, got {value!r}")
    return out


# ---------------------------------------------------------------------------
# handlers: each returns (exit_code, payload_dict, samples_or_None)


def _cmd_bounds_first_chaos(args, cfg):
    _require(args, "--m3", "--m4")
    return 0, first_chaos_bounds(args.m3, args.m4).to_dict(), None


def _cmd_bounds_shot_noise(args, cfg):
    _require(args, "--i2", "--i3", "--i4")
    km = KernelMoments(args.i2, args.i3, args.i4)
    return 0, shotnoise_bounds(km).to_dict(), None


def _cmd_bounds_compound_cluster(args, cfg):
    _require(args, "--lambda", "--leb", "--ez3", "--ez4")
    report = compound_cluster_bounds(
        Region(args.lam, args.leb), parse_mark(args.mark), args.ez3, args.ez4
    )
    return 0, report.to_dict(), None


def _cmd_bounds_hawkes_poisson(args, cfg):
    _require(args, "--lambda", "--leb", "--h")
    report = hawkes_poisson_bounds(
        Region(args.lam, args.leb), args.h, parse_mark(args.mark)
    )
    return 0, report.to_dict(), None


def _cmd_bounds_hawkes_binomial(args, cfg):
    _require(args, "--lambda", "--leb", "--h", "--p")
    report = hawkes_binomial_bounds(
        Region(args.lam, args.leb), args.h, args.p, parse_mark(args.mark)
    )
    return 0, report.to_dict(), None


def _cmd_bounds_interference(args, cfg):
    _require(args, "--lambda", "--R", "--alpha")
    power = parse_mark(args.power)
    report = interference_bounds(
        args.lam,
        power.abs_moment(2),
        power.abs_moment(3),
        power.abs_moment(4),
        hertzian_integral(args.R, args.alpha, 2),
        hertzian_integral(args.R, args.alpha, 3),
        hertzian_integral(args.R, args.alpha, 4),
    )
    return 0, report.to_dict(), None


def _cmd_delta_poisson(args, cfg):
    _require(args, "--h", "--lambda-leb")
    gamma = 0.0 if args.gamma is None else args.gamma
    return 0, delta_poisson(args.h, args.lambda_leb, gamma).to_dict(), None


def _cmd_delta_binomial(args, cfg):
    _require(args, "--h", "--p", "--lambda-leb")
    gamma = 0.0 if args.gamma is None else args.gamma
    h = _as_int(args, "--h", args.h)
    return 0, delta_binomial(h, args.p, args.lambda_leb, gamma).to_dict(), None


def _cmd_tail_bci(args, cfg):
    _require(args, "--gamma", "--delta", "--x")
    payload = {
        "gamma": args.gamma,
        "delta": args.delta,
        "x": args.x,
        "bound": bci_bound(args.gamma, args.delta, args.x),
    }
    return 0, payload, None


def _cmd_tail_insurance(args, cfg):
    _require(args, "--lambda", "--h", "--mu", "--T", "--k")
    report = insurance_tail_report(
        args.lam, args.h, args.mu, args.T, args.k, strict=bool(args.strict)
    )
    return 0, report.to_dict(), None


def _cmd_tail_interval(args, cfg):
    _require(args, "--lambda", "--h", "--mu", "--T", "--x")
    report = total_loss_interval(
        args.lam, args.h, args.mu, args.T, args.x, strict=bool(args.strict)
    )
    return 0, report.to_dict(), None


def _cmd_tail_nacc(args, cfg):
    _require(args, "--gamma", "--delta")
    c0 = 1.0 if args.c0 is None else args.c0
    lo, hi = nacc_window(args.gamma, args.delta, c0)
    payload = {
        "gamma": args.gamma,
        "delta": args.delta,
        "c0": c0,
        "window": [lo, hi],
    }
    return 0, payload, None


def _cmd_tail_mdp(args, cfg):
    _require(args, "--lower", "--upper")
    rate = mdp_rate_inf((args.lower, args.upper))
    return 0, {"interval": [args.lower, args.upper], "rate_inf": rate}, None


def _cmd_tail_cumulant(args, cfg):
    _require(args, "--offspring", "--lambda-leb", "--delta")
    mark = parse_mark(args.mark)
    gamma = mark_gamma(mark) if args.gamma is None else args.gamma
    m_max = 12 if args.m_max is None else _as_int(args, "--m-max", args.m_max)
    report = check_cumulant_condition(
        mark_abs_moments(mark, m_max),
        progeny_moment_table(parse_offspring(args.offspring), m_max),
        args.lambda_leb,
        gamma,
        args.delta,
        m_max,
    )
    payload = dict(report.to_dict(), gamma=gamma, delta=args.delta)
    return 0, payload, None


def _cmd_moments_gw(args, cfg):
    _require(args, "--offspring", "--n")
    law = parse_offspring(args.offspring)
    n = _as_int(args, "--n", args.n)
    table = progeny_moment_table(law, n)
    payload = {"offspring": law.describe(), "n": n, "moments": list(table.moments)}
    return 0, payload, None


def _cmd_moments_factorial(args, cfg):
    _require(args, "--offspring", "--n")
    law = parse_offspring(args.offspring)
    n = _as_int(args, "--n", args.n)
    payload = {
        "offspring": law.describe(),
        "n": n,
        "factorial_moments": factorial_moments(law, n),
    }
    return 0, payload, None


def _cmd_moments_series(args, cfg):
    _require(args, "--offspring", "--m")
    law = parse_offspring(args.offspring)
    m = _as_int(args, "--m", args.m)
    rel_tol = 1e-10 if args.rel_tol is None else args.rel_tol
    payload = {
        "offspring": law.describe(),
        "m": m,
        "rel_tol": rel_tol,
        "value": progeny_moment_series(law, m, rel_tol),
    }
    return 0, payload, None


def _cmd_moments_pmf(args, cfg):
    _require(args, "--offspring", "--k-max")
    law = parse_offspring(args.offspring)
    k_max = _as_int(args, "--k-max", args.k_max)
    if k_max < 1:
        raise DomainError("--k-max must be >= 1")
    if isinstance(law, PoissonMean):
        pmf = [borel_pmf(law.h, k) for k in range(1, k_max + 1)]
    elif isinstance(law, Binomial):
        pmf = [consul_pmf(law.h, law.p, k) for k in range(1, k_max + 1)]
    else:
        raise DomainError("no closed pmf for a bare factorial-moment sequence")
    payload = {"offspring": law.describe(), "k_max": k_max, "pmf": pmf}
    return 0, payload, None


def _cmd_moments_abel(args, cfg):
    _require(args, "--nu", "--m")
    m = _as_int(args, "--m", args.m)
    cs = abel_plana_bound(args.nu, m)
    payload = {
        "nu": args.nu,
        "m": m,
        "center": cs.center,
        "radius": cs.radius,
        "lower": cs.lower,
        "upper": cs.upper,
    }
    return 0, payload, None


def _cmd_verify_moments(args, cfg):
    _require(args, "--offspring")
    report = verify_moments(
        parse_offspring(args.offspring), cfg.reps, cfg.seed, workers=cfg.workers
    )
    return (0 if report.passed else 3), report.to_dict(), report.samples


def _build_gauss_scenario(args):
    mark = parse_mark(args.mark)
    beta = 1.0 if args.beta is None else args.beta
    name = args.scenario
    if name == "compound-poisson":
        if args.lam is not None:
            args.leaf_parser.error(
                "compound-poisson fixes --lambda at 1; set the window mass "
                "with --lambda-leb"
            )
        _require(args, "--lambda-leb")
        return ClusterModel(
            1.0,
            args.lambda_leb,
            FactorialMoments((0.0, 0.0, 0.0, 0.0)),
            mark=mark,
            delay_rate=beta,
        )
    lam = 1.0 if args.lam is None else args.lam
    if name == "hawkes-poisson":
        _require(args, "--h", "--T")
        return ClusterModel(
            lam, args.T, PoissonMean(args.h), mark=mark, delay_rate=beta
        )
    if name == "hawkes-binomial":
        _require(args, "--h", "--p", "--T")
        h = _as_int(args, "--h", args.h)
        return ClusterModel(
            lam, args.T, Binomial(h, args.p), mark=mark, delay_rate=beta
        )
    # interference
    _require(args, "--lambda", "--R", "--alpha")
    tail_eps = 1.0 if args.tail_eps is None else args.tail_eps
    return InterferenceModel(
        args.lam, args.R, args.alpha, power=parse_mark(args.power), tail_eps=tail_eps
    )


def _cmd_verify_gauss(args, cfg):
    _require(args, "--scenario")
    scenario = _build_gauss_scenario(args)
    report = verify_gaussian_bound(scenario, cfg.reps, cfg.seed, workers=cfg.workers)
    return (0 if report.passed else 3), report.to_dict(), report.samples


def _cmd_verify_bci(args, cfg):
    _require(args, "--h", "--T")
    mark = parse_mark(args.mark)
    lam = 1.0 if args.lam is None else args.lam
    beta = 1.0 if args.beta is None else args.beta
    delta_scale = 1.0 if args.delta_scale is None else args.delta_scale
    if not (delta_scale > 0 and math.isfinite(delta_scale)):
        raise DomainError("--delta-scale must be positive and finite")
    x_max = 4.0 if args.x_max is None else args.x_max
    x_step = 0.5 if args.x_step is None else args.x_step
    if not (x_step > 0 and x_max >= 0):
        raise DomainError("need --x-step > 0 and --x-max >= 0")
    m_max = 12 if args.m_max is None else _as_int(args, "--m-max", args.m_max)

    scenario = ClusterModel(
        lam, args.T, PoissonMean(args.h), mark=mark, delay_rate=beta
    )
    gamma = mark_gamma(mark)
    base = delta_poisson(args.h, lam * args.T, gamma)
    x_grid = [k * x_step for k in range(int(math.floor(x_max / x_step + 1e-9)) + 1)]
    report = verify_bci(
        scenario,
        gamma,
        base.delta * delta_scale,
        x_grid,
        cfg.reps,
        cfg.seed,
        workers=cfg.workers,
        m_max=m_max,
    )
    payload = report.to_dict()
    payload["details"]["delta_base"] = base.delta
    payload["details"]["delta_case"] = base.case_label
    payload["details"]["delta_scale"] = delta_scale
    return (0 if report.passed else 3), payload, report.samples


# ---------------------------------------------------------------------------
# parser assembly


def _leaf(subparsers, name, handler, parents=(), help=None):
    p = subparsers.add_parser(name, parents=list(parents), help=help)
    p.set_defaults(handler=handler, leaf_parser=p)
    return p


def build_parser() -> _Parser:
    io_common = argparse.ArgumentParser(add_help=False)
    io_common.add_argument(
        "--config", default=None, metavar="PATH", help="JSON file of flag values"
    )
    io_common.add_argument(
        "--output", default=None, metavar="PATH", help="also write the report here"
    )

    run_common = argparse.ArgumentParser(add_help=False)
    run_common.add_argument("--seed", type=int, default=None)
    run_common.add_argument("--reps", type=int, default=None)
    run_common.add_argument("--workers", type=int, default=None)
    run_common.add_argument("--format", choices=("json", "csv"), default=None)
    run_common.add_argument(
        "--dump-samples", dest="dump_samples", default=None, metavar="PATH"
    )

    parser = _Parser(
        prog="chaos-bounds",
        description="Gaussian-approximation bounds, concentration parameters, "
        "and progeny moments for Poisson cluster models, with Monte Carlo "
        "verification.",
    )
    top = parser.add_subparsers(dest="command", metavar="command", required=True)

    bounds = top.add_parser("bounds", help="distance bounds to the normal")
    bsub = bounds.add_subparsers(dest="subcommand", metavar="model", required=True)
    p = _leaf(bsub, "first-chaos", _cmd_bounds_first_chaos, [io_common])
    p.add_argument("--m3", type=float, default=None)
    p.add_argument("--m4", type=float, default=None)
    p = _leaf(bsub, "shot-noise", _cmd_bounds_shot_noise, [io_common])
    p.add_argument("--i2", type=float, default=None)
    p.add_argument("--i3", type=float, default=None)
    p.add_argument("--i4", type=float, default=None)
    p = _leaf(bsub, "compound-cluster", _cmd_bounds_compound_cluster, [io_common])
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--leb", type=float, default=None)
    p.add_argument("--mark", default="const:1")
    p.add_argument("--ez3", type=float, default=None)
    p.add_argument("--ez4", type=float, default=None)
    p = _leaf(bsub, "hawkes-poisson", _cmd_bounds_hawkes_poisson, [io_common])
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--leb", type=float, default=None)
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--mark", default="const:1")
    p = _leaf(bsub, "hawkes-binomial", _cmd_bounds_hawkes_binomial, [io_common])
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--leb", type=float, default=None)
    p.add_argument("--h", type=int, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--mark", default="const:1")
    p = _leaf(bsub, "interference", _cmd_bounds_interference, [io_common])
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--R", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--power", default="const:1")

    delta = top.add_parser("delta", help="cumulant calibration parameters")
    dsub = delta.add_subparsers(dest="subcommand", metavar="family", required=True)
    p = _leaf(dsub, "poisson", _cmd_delta_poisson, [io_common])
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--lambda-leb", dest="lambda_leb", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p = _leaf(dsub, "binomial", _cmd_delta_binomial, [io_common])
    p.add_argument("--h", type=int, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--lambda-leb", dest="lambda_leb", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)

    tail = top.add_parser("tail", help="tail bounds and intervals")
    tsub = tail.add_subparsers(dest="subcommand", metavar="what", required=True)
    p = _leaf(tsub, "bci", _cmd_tail_bci, [io_common])
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--x", type=float, default=None)
    p = _leaf(tsub, "insurance", _cmd_tail_insurance, [io_common])
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--strict", action="store_true", default=None)
    p = _leaf(tsub, "interval", _cmd_tail_interval, [io_common])
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--strict", action="store_true", default=None)
    p = _leaf(tsub, "nacc", _cmd_tail_nacc, [io_common])
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--c0", type=float, default=None)
    p = _leaf(tsub, "mdp", _cmd_tail_mdp, [io_common])
    p.add_argument("--lower", type=float, default=None)
    p.add_argument("--upper", type=float, default=None)
    p = _leaf(tsub, "cumulant", _cmd_tail_cumulant, [io_common])
    p.add_argument("--offspring", default=None)
    p.add_argument("--mark", default="const:1")
    p.add_argument("--lambda-leb", dest="lambda_leb", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--m-max", dest="m_max", type=int, default=None)

    moments = top.add_parser("moments", help="progeny moments, pmfs, series")
    msub = moments.add_subparsers(dest="subcommand", metavar="what", required=True)
    p = _leaf(msub, "gw", _cmd_moments_gw, [io_common])
    p.add_argument("--offspring", default=None)
    p.add_argument("--n", type=int, default=None)
    p = _leaf(msub, "factorial", _cmd_moments_factorial, [io_common])
    p.add_argument("--offspring", default=None)
    p.add_argument("--n", type=int, default=None)
    p = _leaf(msub, "series", _cmd_moments_series, [io_common])
    p.add_argument("--offspring", default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--rel-tol", dest="rel_tol", type=float, default=None)
    p = _leaf(msub, "pmf", _cmd_moments_pmf, [io_common])
    p.add_argument("--offspring", default=None)
    p.add_argument("--k-max", dest="k_max", type=int, default=None)
    p = _leaf(msub, "abel", _cmd_moments_abel, [io_common])
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--m", type=int, default=None)

    verify = top.add_parser("verify", help="Monte Carlo verification harnesses")
    vsub = verify.add_subparsers(dest="subcommand", metavar="what", required=True)
    p = _leaf(vsub, "moments", _cmd_verify_moments, [io_common, run_common])
    p.add_argument("--offspring", default=None)
    p = _leaf(vsub, "gauss", _cmd_verify_gauss, [io_common, run_common])
    p.add_argument(
        "--scenario",
        choices=(
            "compound-poisson",
            "hawkes-poisson",
            "hawkes-binomial",
            "interference",
        ),
        default=None,
    )
    p.add_argument("--lambda-leb", dest="lambda_leb", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--mark", default="const:1")
    p.add_argument("--R", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--power", default="const:1")
    p.add_argument("--tail-eps", dest="tail_eps", type=float, default=None)
    p = _leaf(vsub, "bci", _cmd_verify_bci, [io_common, run_common])
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--mark", default="const:1")
    p.add_argument("--delta-scale", dest="delta_scale", type=float, default=None)
    p.add_argument("--x-max", dest="x_max", type=float, default=None)
    p.add_argument("--x-step", dest="x_step", type=float, default=None)
    p.add_argument("--m-max", dest="m_max", type=int, default=None)

    return parser


# ---------------------------------------------------------------------------
# config merge, run config, output


_PLUMBING_KEYS = {"command", "subcommand", "handler", "leaf_parser", "config"}


def _merge_config(args) -> None:
    path = getattr(args, "config", None)
    if not path:
        return
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        args.leaf_parser.error(f"cannot read config file: {exc}")
    if not isinstance(data, dict):
        args.leaf_parser.error("config file must hold a JSON object")
    for key, value in data.items():
        dest = _dest(str(key)) if str(key).startswith("--") else str(key).replace("-", "_")
        if dest == "lambda":
            dest = "lam"
        if dest in _PLUMBING_KEYS or not hasattr(args, dest):
            args.leaf_parser.error(f"unknown config key for this command: {key}")
        if getattr(args, dest) is None:
            setattr(args, dest, value)


def _resolve_seed(args) -> int:
    seed = getattr(args, "seed", None)
    if seed is None:
        raw = os.environ.get(SEED_ENV_VAR)
        if raw is not None:
            try:
                seed = int(raw, 0)
            except ValueError:
                raise DomainError(
                    f"{SEED_ENV_VAR} must be an integer, got {raw!r}"
                )
        else:
            seed = DEFAULT_SEED
    seed = int(seed)
    if not 0 <= seed < 2 ** 64:
        raise DomainError("seed must be a 64-bit unsigned integer")
    return seed


def _build_config(args) -> RunConfig:
    seed = _resolve_seed(args)
    reps = getattr(args, "reps", None)
    reps = 1000 if reps is None else int(reps)
    if reps < 1:
        raise DomainError("reps must be >= 1")
    workers = getattr(args, "workers", None)
    workers = 1 if workers is None else int(workers)
    if workers < 1:
        raise DomainError("workers must be >= 1")
    fmt = getattr(args, "format", None) or "json"
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in _PLUMBING_KEYS
        and k not in ("seed", "reps", "workers", "output", "format", "dump_samples")
        and v is not None
    }
    return RunConfig(
        command=f"{args.command} {args.subcommand}",
        seed=seed,
        reps=reps,
        workers=workers,
        output=getattr(args, "output", None),
        format=fmt,
        dump_samples=getattr(args, "dump_samples", None),
        params=params,
    )


def _emit(cfg: RunConfig, payload: dict, samples) -> None:
    if cfg.format == "csv":
        if samples is None:
            raise DomainError(
                "csv output is only available for verify commands that draw samples"
            )
        text = samples_csv_text(samples)
    else:
        text = json.dumps(payload, sort_keys=True, indent=2, default=_json_default) + "\n"
    sys.stdout.write(text)
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    if cfg.dump_samples:
        if samples is None:
            raise DomainError("--dump-samples requires a command that draws samples")
        write_samples_csv(cfg.dump_samples, samples)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _merge_config(args)
    try:
        cfg = _build_config(args)
        code, payload, samples = args.handler(args, cfg)
        _emit(cfg, payload, samples)
        return code
    except ChaosBoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
