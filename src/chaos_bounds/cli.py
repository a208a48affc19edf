"""Command-line front end: every calculator and verification harness, with
reproducible machine-readable output.

Reports are JSON (keys sorted, no timestamps), so a fixed argv and seed give
byte-identical output.  Exit codes: 0 success, 1 usage error (bad flag, bad
config file, unwritable --output or --dump-samples), 2 domain error,
3 verification failure (the report is still printed).

Every leaf command is one row of ``_COMMANDS``: its group, name, handler and
flags, each flag declared once with its type, default and whether it is
required.  A flag's type checks it as argparse reads it, so handlers receive
parsed laws and orders or lengths within MAX_SIZE.  The law flags (--mark,
--power, --offspring) share one grammar, family:p1,p2,... with numeric
parameters, and differ only in their table of families (``_law_type``), so
an empty parameter is malformed in each.  ``build_parser`` builds
argparse from that table; ``main`` builds it once per process and reuses it,
since parsing never changes a parser.  Each verify gauss scenario is one row
of ``_SCENARIOS``, the flags it reads; a given flag its row lacks is a usage
error, and verify bci takes the hawkes-poisson row.
Only the verify handlers import ``simulate``, so a calculator command loads
only the standard library.

The RNG seed resolves as: --seed flag, else the CHAOS_BOUNDS_SEED environment
variable, else the fixed default 0xC0FFEE.  A JSON config file (--config) is
read as flags: each key names a flag of the chosen subcommand and becomes a
--key=value token placed ahead of the explicit flags, so the same parser
checks it and explicit flags, coming later, win over the file.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import replace
from typing import Callable

from .deviations import (
    bci_bound,
    cumulant_condition_for_law,
    delta_binomial,
    delta_poisson,
    insurance_tail_report,
    mdp_rate_inf,
    nacc_window,
    total_loss_interval,
)
from .errors import ChaosBoundsError, DomainError, UnknownFamily, check_integer, check_positive
from .gaussian_bounds import (
    Region,
    cluster_bounds_for_law,
    compound_cluster_bounds,
    first_chaos_bounds,
    interference_bounds,
    shotnoise_bounds,
)
from .marks import (
    CenteredGaussianMark,
    ConstantMark,
    CustomAbsMoments,
    ExponentialMark,
    UniformMark,
)
from .progeny import (
    Binomial,
    FactorialMoments,
    PoissonMean,
    abel_plana_bound,
    factorial_moments,
    progeny_moment_series,
    progeny_moment_table,
)

DEFAULT_SEED = 0xC0FFEE
SEED_ENV_VAR = "CHAOS_BOUNDS_SEED"
# the most moment orders, pmf terms or x-grid points one command computes
MAX_SIZE = 10_000


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this front end reserves 2 for domain
    errors, so remap usage problems to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def integer(text: str) -> int:
    """argparse type of the integer flags: an int, or a float with no
    fractional part ("1e3", "2.0")."""
    try:
        return int(text)
    except ValueError:
        value = float(text)
        if not value.is_integer():
            raise
        return int(value)


class Flag:
    """One long option of a leaf command, declared once: its type (bool makes
    an on/off switch), default and whether it is required, plus any other
    add_argument keywords.  The argparse keywords are built here, once."""

    def __init__(self, name: str, type: Callable = float, default=None, required=False,
                 capped=False, **more):
        self.name = name
        self.dest = "lam" if name == "--lambda" else name[2:].replace("-", "_")
        if capped:  # held to MAX_SIZE as it is read; argparse's messages keep the type's name
            type = functools.wraps(type)(lambda text, read=type: _check_size(name, read(text)))
        kind = {"action": "store_true"} if type is bool else {"type": type}
        self.kwargs = dict(kind, dest=self.dest, default=default, required=required, **more)


def _req(name: str, type: Callable = float, **more) -> Flag:
    return Flag(name, type, required=True, **more)


def _law_type(what: str, table: dict, expected: str) -> Callable:
    """The argparse type of a law flag, by the one grammar of every law string:
    family:p1,p2,..., the family name stripped and case-insensitive and the
    parameters comma-separated numbers.  Each row of ``table`` maps a family
    to its law, built from the parameters, and the least and most parameters
    that law takes.  An empty or non-numeric parameter is a bad-parameters
    error, and an unknown family or parameter count an unknown-string error
    that lists ``expected``; both are UnknownFamily, so exit 2."""

    def parse(text: str):
        fam, _, rest = str(text).partition(":")
        try:
            params = [float(tok) for tok in rest.split(",")] if rest else []
        except ValueError:
            raise UnknownFamily(f"bad {what} parameters in {text!r}")
        law, least, most = table.get(fam.strip().lower(), (None, 1, 0))  # an unknown family fits no count
        if not least <= len(params) <= most:
            raise UnknownFamily(f"unknown {what} string {text!r}; expected {expected}")
        return law(*params)

    return parse


def _binomial(h: float, p: float) -> Binomial:
    if not h.is_integer():
        raise DomainError(f"binomial trial count must be an integer, got {h}")
    return Binomial(int(h), p)


parse_mark = _law_type("mark", {
    "const": (ConstantMark, 1, 1), "uniform": (UniformMark, 1, 1),
    "exp": (ExponentialMark, 1, 1), "gauss": (CenteredGaussianMark, 1, 1),
    "custom": (lambda *m: CustomAbsMoments(m), 2, math.inf),
}, "const:v, uniform:d, exp:mean, gauss:sigma, or custom:m1,m2,...")
parse_offspring = _law_type("offspring", {
    "poisson": (PoissonMean, 1, 1), "binomial": (_binomial, 2, 2),
    "factorial": (lambda *e: FactorialMoments(e), 1, math.inf),
}, "poisson:h, binomial:h,p, or factorial:e1,e2,...")


def _check_size(flag: str, value: int) -> int:
    """value, unless an order or length flag is above MAX_SIZE: checked as the
    flag is read, before anything is allocated for it."""
    if value > MAX_SIZE:
        raise DomainError(f"{flag} {value} is above the limit of {MAX_SIZE}")
    return value


# ---------------------------------------------------------------------------
# handlers: each returns its report, a dict or an object with to_dict().  A
# VerificationReport's verdict sets the exit code, and its samples are what
# --format csv and --dump-samples write.


def _cmd_bounds_first_chaos(args):
    return first_chaos_bounds(args.m3, args.m4)


def _cmd_bounds_shot_noise(args):
    return shotnoise_bounds(args.i2, args.i3, args.i4)


def _cmd_bounds_compound_cluster(args):
    region = Region(args.lam, args.leb)
    return compound_cluster_bounds(region, args.mark, args.ez3, args.ez4)


def _cmd_bounds_hawkes(args):
    """bounds hawkes-poisson and hawkes-binomial: the cluster bound of the
    leaf's offspring law, echoing the law's family as kind and its
    parameters."""
    region = Region(args.lam, args.leb)
    law = PoissonMean(args.h) if args.subcommand == "hawkes-poisson" else Binomial(args.h, args.p)
    report = cluster_bounds_for_law(region, law, args.mark)
    params = law.describe()
    kind = "hawkes-" + params.pop("family")
    return replace(report, inputs=dict(report.inputs, kind=kind, **params))


def _cmd_bounds_interference(args):
    return interference_bounds(args.lam, args.R, args.alpha, args.power)


def _cmd_delta_poisson(args):
    return delta_poisson(args.h, args.lambda_leb, args.gamma)


def _cmd_delta_binomial(args):
    return delta_binomial(args.h, args.p, args.lambda_leb, args.gamma)


def _cmd_tail_bci(args):
    bound = bci_bound(args.gamma, args.delta, args.x)
    return {"gamma": args.gamma, "delta": args.delta, "x": args.x, "bound": bound}


def _cmd_tail_insurance(args):
    return insurance_tail_report(args.lam, args.h, args.mu, args.T, args.k, strict=args.strict)


def _cmd_tail_interval(args):
    return total_loss_interval(args.lam, args.h, args.mu, args.T, args.x, strict=args.strict)


def _cmd_tail_nacc(args):
    window = list(nacc_window(args.gamma, args.delta, args.c0))
    return {"gamma": args.gamma, "delta": args.delta, "c0": args.c0, "window": window}


def _cmd_tail_mdp(args):
    rate = mdp_rate_inf((args.lower, args.upper))
    return {"interval": [args.lower, args.upper], "rate_inf": rate}


def _cmd_tail_cumulant(args):
    # no static default: the mark law's own gamma
    gamma = args.mark.gamma if args.gamma is None else args.gamma
    report = cumulant_condition_for_law(
        args.mark, args.offspring, args.lambda_leb, gamma, args.delta, args.m_max
    )
    return dict(report.to_dict(), gamma=gamma, delta=args.delta)


def _cmd_moments_gw(args):
    moments = list(progeny_moment_table(args.offspring, args.n).moments)
    return {"offspring": args.offspring.describe(), "n": args.n, "moments": moments}


def _cmd_moments_factorial(args):
    values = factorial_moments(args.offspring, args.n)
    return {"offspring": args.offspring.describe(), "n": args.n, "factorial_moments": values}


def _cmd_moments_series(args):
    return {
        "offspring": args.offspring.describe(),
        "m": args.m,
        "rel_tol": args.rel_tol,
        "value": progeny_moment_series(args.offspring, args.m, args.rel_tol),
    }


def _cmd_moments_pmf(args):
    check_integer("--k-max", args.k_max, 1)
    pmf = [args.offspring.pmf(k) for k in range(1, args.k_max + 1)]
    return {"offspring": args.offspring.describe(), "k_max": args.k_max, "pmf": pmf}


def _cmd_moments_abel(args):
    cs = abel_plana_bound(args.nu, args.m)
    return {
        "nu": args.nu,
        "m": args.m,
        "center": cs.center,
        "radius": cs.radius,
        "lower": cs.lower,
        "upper": cs.upper,
    }


def _cmd_verify_moments(args):
    from .simulate import verify_moments

    return verify_moments(args.offspring, args.reps, args.seed, workers=args.workers)


def _build_scenario(args, name: str):
    """The model of verify gauss's --scenario name, from its row of _SCENARIOS;
    verify bci simulates the hawkes-poisson window, so both build it here."""
    from .simulate import ClusterModel, InterferenceModel

    row = _SCENARIOS[name]
    unread = [f.name for f in _GAUSS_FLAGS
              if getattr(args, f.dest, None) is not None and f.dest not in {g.dest for g in row}]
    missing = [f.name for f in row if f.kwargs["required"] and getattr(args, f.dest) is None]
    for rule, flags in (("does not read", unread), ("requires", missing)):
        if flags:
            args.leaf_parser.error(f"--scenario {name} {rule} " + ", ".join(flags))
    # verify gauss declares every scenario flag with no default
    vars(args).update({f.dest: f.kwargs["default"] for f in row if getattr(args, f.dest) is None})
    if name == "interference":
        return InterferenceModel(args.lam, args.R, args.alpha, power=args.power, tail_eps=args.tail_eps)
    if name == "compound-poisson":  # no offspring, so no delays: rate 1 over mass --lambda-leb
        args.lam, args.T, args.beta, offspring = 1.0, args.lambda_leb, 1.0, FactorialMoments((0.0,))
    elif name == "hawkes-binomial":
        if not args.h.is_integer():
            args.leaf_parser.error(f"--h must be an integer, got {args.h!r}")
        offspring = Binomial(int(args.h), args.p)
    else:
        offspring = PoissonMean(args.h)
    return ClusterModel(args.lam, args.T, offspring, mark=args.mark, delay_rate=args.beta)


def _cmd_verify_gauss(args):
    from .simulate import verify_gaussian_bound

    scenario = _build_scenario(args, args.scenario)
    return verify_gaussian_bound(scenario, args.reps, args.seed, workers=args.workers)


def _cmd_verify_bci(args):
    from .simulate import verify_bci

    check_positive("--delta-scale", args.delta_scale)
    if not (0 < args.x_step < math.inf and 0 <= args.x_max < math.inf):
        raise DomainError("need finite --x-step > 0 and --x-max >= 0")
    steps = math.floor(args.x_max / args.x_step + 1e-9)
    if steps >= MAX_SIZE:
        raise DomainError(f"the x-grid would have {steps + 1} points; at most {MAX_SIZE} are allowed")

    scenario = _build_scenario(args, "hawkes-poisson")
    gamma = args.mark.gamma
    base = delta_poisson(args.h, args.lam * args.T, gamma)
    report = verify_bci(
        scenario,
        gamma,
        base.delta * args.delta_scale,
        [k * args.x_step for k in range(steps + 1)],
        args.reps,
        args.seed,
        workers=args.workers,
        m_max=args.m_max,
    )
    report.details.update(
        delta_base=base.delta, delta_case=base.case_label, delta_scale=args.delta_scale
    )
    return report


# ---------------------------------------------------------------------------
# the command table


_GROUPS = {  # group: (metavar of its leaf, help)
    "bounds": ("model", "distance bounds to the normal"),
    "delta": ("family", "cumulant calibration parameters"),
    "tail": ("what", "tail bounds and intervals"),
    "moments": ("what", "progeny moments, pmfs, series"),
    "verify": ("what", "Monte Carlo verification harnesses"),
}

# shared by every leaf
_IO_FLAGS = (
    Flag("--config", str, metavar="PATH", help="JSON file of flag values"),
    Flag("--output", str, metavar="PATH", help="also write the report here"),
)
# shared by the verify leaves
_RUN_FLAGS = (
    Flag("--seed", integer),
    Flag("--reps", integer, 1000),
    Flag("--workers", integer, 1),
    Flag("--format", str, "json", choices=("json", "csv")),
    Flag("--dump-samples", str, metavar="PATH"),
)

_LAMBDA = _req("--lambda")
_MARK = Flag("--mark", parse_mark, ConstantMark(1.0))
_POWER = Flag("--power", parse_mark, ConstantMark(1.0))
_OFFSPRING = _req("--offspring", parse_offspring)
_STRICT = Flag("--strict", bool, False)
_M_MAX = Flag("--m-max", integer, 12, capped=True)
_N = _req("--n", integer, capped=True)

# each verify gauss scenario: the flags it reads, with their defaults and
# required rules.  verify gauss declares each of them once, with no default.
_WINDOW = (Flag("--lambda", float, 1.0), _req("--T"), Flag("--beta", float, 1.0), _MARK)
_SCENARIOS = {
    "compound-poisson": (_req("--lambda-leb"), _MARK),
    "hawkes-poisson": (_req("--h"),) + _WINDOW,
    "hawkes-binomial": (_req("--h"), _req("--p")) + _WINDOW,
    "interference": (_LAMBDA, _req("--R"), _req("--alpha"), _POWER, Flag("--tail-eps", float, 1.0)),
}
_GAUSS_FLAGS = tuple({f.name: Flag(f.name, f.kwargs["type"]) for row in _SCENARIOS.values()
                      for f in row}.values())

_COMMANDS = (
    ("bounds", "first-chaos", _cmd_bounds_first_chaos, (_req("--m3"), _req("--m4"))),
    ("bounds", "shot-noise", _cmd_bounds_shot_noise,
     (_req("--i2"), _req("--i3"), _req("--i4"))),
    ("bounds", "compound-cluster", _cmd_bounds_compound_cluster,
     (_LAMBDA, _req("--leb"), _MARK, _req("--ez3"), _req("--ez4"))),
    ("bounds", "hawkes-poisson", _cmd_bounds_hawkes,
     (_LAMBDA, _req("--leb"), _req("--h"), _MARK)),
    ("bounds", "hawkes-binomial", _cmd_bounds_hawkes,
     (_LAMBDA, _req("--leb"), _req("--h", integer), _req("--p"), _MARK)),
    ("bounds", "interference", _cmd_bounds_interference,
     (_LAMBDA, _req("--R"), _req("--alpha"), _POWER)),
    ("delta", "poisson", _cmd_delta_poisson,
     (_req("--h"), _req("--lambda-leb"), Flag("--gamma", float, 0.0))),
    ("delta", "binomial", _cmd_delta_binomial,
     (_req("--h", integer), _req("--p"), _req("--lambda-leb"), Flag("--gamma", float, 0.0))),
    ("tail", "bci", _cmd_tail_bci, (_req("--gamma"), _req("--delta"), _req("--x"))),
    ("tail", "insurance", _cmd_tail_insurance,
     (_LAMBDA, _req("--h"), _req("--mu"), _req("--T"), _req("--k"), _STRICT)),
    ("tail", "interval", _cmd_tail_interval,
     (_LAMBDA, _req("--h"), _req("--mu"), _req("--T"), _req("--x"), _STRICT)),
    ("tail", "nacc", _cmd_tail_nacc,
     (_req("--gamma"), _req("--delta"), Flag("--c0", float, 1.0))),
    ("tail", "mdp", _cmd_tail_mdp, (_req("--lower"), _req("--upper"))),
    ("tail", "cumulant", _cmd_tail_cumulant,
     (_OFFSPRING, _MARK, _req("--lambda-leb"), Flag("--gamma"), _req("--delta"), _M_MAX)),
    ("moments", "gw", _cmd_moments_gw, (_OFFSPRING, _N)),
    ("moments", "factorial", _cmd_moments_factorial, (_OFFSPRING, _N)),
    ("moments", "series", _cmd_moments_series,
     (_OFFSPRING, _req("--m", integer), Flag("--rel-tol", float, 1e-10))),
    ("moments", "pmf", _cmd_moments_pmf, (_OFFSPRING, _req("--k-max", integer, capped=True))),
    ("moments", "abel", _cmd_moments_abel, (_req("--nu"), _req("--m", integer, capped=True))),
    ("verify", "moments", _cmd_verify_moments, (_OFFSPRING,)),
    ("verify", "gauss", _cmd_verify_gauss,
     (Flag("--scenario", str, required=True, choices=tuple(_SCENARIOS)),) + _GAUSS_FLAGS),
    ("verify", "bci", _cmd_verify_bci, _SCENARIOS["hawkes-poisson"] + (
        Flag("--delta-scale", float, 1.0), Flag("--x-max", float, 4.0),
        Flag("--x-step", float, 0.5), _M_MAX,
    )),
)


def _add_flags(parser, flags) -> None:
    for f in flags:
        parser.add_argument(f.name, **f.kwargs)


def build_parser() -> _Parser:
    io_common = argparse.ArgumentParser(add_help=False)
    _add_flags(io_common, _IO_FLAGS)
    run_common = argparse.ArgumentParser(add_help=False)
    _add_flags(run_common, _RUN_FLAGS)

    parser = _Parser(
        prog="chaos-bounds",
        description="Gaussian-approximation bounds, concentration parameters, "
        "and progeny moments for Poisson cluster models, with Monte Carlo "
        "verification.",
    )
    top = parser.add_subparsers(dest="command", metavar="command", required=True)
    groups = {
        name: top.add_parser(name, help=text).add_subparsers(
            dest="subcommand", metavar=metavar, required=True
        )
        for name, (metavar, text) in _GROUPS.items()
    }
    # (group, leaf): (its parser, the flags a config file may set: all but --config)
    parser.leaves = {}
    for group, leaf, handler, flags in _COMMANDS:
        run = group == "verify"
        # an explicit help=None still lists the leaf in its group's --help
        p = groups[group].add_parser(
            leaf, parents=[io_common, run_common] if run else [io_common], help=None
        )
        p.set_defaults(handler=handler, leaf_parser=p)
        _add_flags(p, flags)
        parser.leaves[group, leaf] = p, _IO_FLAGS[1:] + (_RUN_FLAGS if run else ()) + flags
    return parser


# ---------------------------------------------------------------------------
# config file, run flags, output


def _names_config(token: str) -> bool:
    """Whether the token is --config or an abbreviation argparse would
    accept for it."""
    option = token.partition("=")[0]
    return len(option) > 2 and "--config".startswith(option)


def _config_as_flags(parser: _Parser, argv: list) -> list:
    """argv with the --config file's keys inserted as --key=value tokens
    right after the two command words, ahead of the explicit flags."""
    leaf, flags = parser.leaves.get(tuple(argv[:2]), (None, ()))
    if leaf is None:
        return argv  # not a leaf command: the full parse reports it
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config")
    try:
        path = pre.parse_known_args(argv[2:])[0].config
    except argparse.ArgumentError:
        return argv  # --config without a path: the full parse reports it
    if path is None:
        return argv
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        leaf.error(f"cannot read config file: {exc}")
    if not isinstance(data, dict):
        leaf.error("config file must hold a JSON object")
    # a key is a flag's name or its dest, with or without the dashes
    names = {k: f.name for f in flags for k in (f.dest, f.name[2:].replace("-", "_"))}
    tokens = []
    for key, value in data.items():
        name = names.get(str(key).lstrip("-").replace("-", "_"))
        if name is None:
            leaf.error(f"unknown config key for this command: {key}")
        if value is True:  # a switch; false leaves it off
            tokens.append(name)
        elif value is not False:
            tokens.append(f"{name}={value if isinstance(value, str) else json.dumps(value)}")
    return argv[:2] + tokens + argv[2:]


def _resolve_run_flags(args) -> None:
    """Resolve the seed of a leaf with run flags in place, then check its
    worker count; ``simulate`` checks the replication count."""
    raw = os.environ.get(SEED_ENV_VAR)
    if args.seed is None and raw is not None:
        try:
            args.seed = int(raw, 0)
        except ValueError:
            raise DomainError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}")
    if args.seed is None:
        args.seed = DEFAULT_SEED
    if not 0 <= args.seed < 2 ** 64:
        raise DomainError("seed must be a 64-bit unsigned integer")
    if args.workers < 1:
        raise DomainError("workers must be >= 1")


def _write(args, path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        args.leaf_parser.error(f"cannot write {path}: {exc.strerror or exc}")


def samples_csv_text(samples) -> str:
    """Render a verify report's draws as seed_index,value rows, full repr
    precision."""
    return "seed_index,value\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(samples.tolist()))


def _emit(args, report) -> int:
    """Print the report (under --format csv, its samples), copy it to
    --output and the samples to --dump-samples; return the exit code."""
    if getattr(args, "format", None) == "csv":
        text = samples_csv_text(report.samples)
    else:
        payload = report if isinstance(report, dict) else report.to_dict()
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if args.output:
        _write(args, args.output, text)
    if getattr(args, "dump_samples", None):
        _write(args, args.dump_samples, samples_csv_text(report.samples))
    return 0 if getattr(report, "passed", True) else 3


_PARSER = None  # the one parser of this process, built on first use


def main(argv=None) -> int:
    global _PARSER
    argv = sys.argv[1:] if argv is None else list(argv)
    if _PARSER is None:
        _PARSER = build_parser()
    parser = _PARSER
    if any(_names_config(tok) for tok in argv):
        argv = _config_as_flags(parser, argv)
    try:  # a flag's type may raise a domain error as argparse reads it
        args = parser.parse_args(argv)
        if "seed" in args:  # only the verify leaves take the run flags
            _resolve_run_flags(args)
        return _emit(args, args.handler(args))
    except ChaosBoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError:  # Python float arithmetic raises where numpy returns inf
        print("error: a value leaves float range", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
