"""The benchmark's workloads and the checks on every command's output.

A pass is a list of CLI commands, run in order through the public entry
``chaos_bounds.cli.main(argv)`` with stdout captured.  Every command is
checked twice over:

* its deterministic fields (bounds, delta, progeny moments, cumulant
  verdicts, pmf values) must match the values frozen in ``reference.json``
  (written by ``freeze.py``) within ``REL_TOL``;
* its simulated fields must agree with exact theory: the verdict must be
  the expected one (the negative control must fail), and a cluster run's
  calibration mean must lie within ``MEAN_SE`` standard errors of the exact
  censored window mean.

No check depends on the order in which random numbers are drawn, so a later
change of the RNG layout stays checkable.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

REL_TOL = 1e-9
MEAN_SE = 5.0
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# certify sweeps these offspring laws; the seed picks one window mass each
LAWS = (
    "poisson:0.2",
    "poisson:0.5",
    "poisson:0.8",
    "binomial:1,0.5",
    "binomial:2,0.25",
    "binomial:3,0.2",
)
LAMBDA_LEB = ("1e2", "1e3", "1e4", "1e5", "1e6")
CUMULANT_M_MAX = 16
SERIES_M_MAX = 12

# one pass of every calculator the sweep does not already run
CALCULATORS = (
    "bounds first-chaos --m3 1.5 --m4 3.2",
    "bounds shot-noise --i2 1 --i3 0.5 --i4 0.4",
    "bounds compound-cluster --lambda 1 --leb 1e4 --mark exp:1 --ez3 64 --ez4 832",
    "bounds hawkes-poisson --lambda 1 --leb 1e6 --h 0.5 --mark exp:2",
    "bounds hawkes-binomial --lambda 1 --leb 1e6 --h 3 --p 0.2 --mark uniform:2",
    "bounds interference --lambda 50 --R 1 --alpha 4 --power exp:1",
    "tail bci --gamma 0 --delta 100 --x 10",
    "tail insurance --lambda 1 --h 0.5 --mu 1 --T 64 --k 2",
    "tail interval --lambda 1 --h 0.5 --mu 1 --T 1e4 --x 4",
    "tail nacc --gamma 1 --delta 64",
    "tail mdp --lower 1 --upper 2",
    "moments factorial --offspring binomial:3,0.2 --n 8",
    "moments pmf --offspring poisson:0.5 --k-max 40",
    "moments pmf --offspring binomial:3,0.2 --k-max 40",
    "moments abel --nu 0.2 --m 6",
)


class BenchError(Exception):
    """The benchmark cannot run here (no program to measure, broken set-up)."""


@dataclass(frozen=True)
class Command:
    """One CLI call.  ``argv`` is its fixed part and, joined by spaces, its key
    in reference.json; ``run`` holds --seed/--reps/--workers, which change no
    frozen field.  With ``delta_from`` set, the "delta" of that earlier
    command's report is appended as --delta."""

    argv: tuple
    run: tuple = ()
    expect: int = 0
    work: int = 0
    delta_from: str | None = None
    exact_mean: float | None = None

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def censored_mean(lam: float, horizon: float, h: float, beta: float, mark_mean: float) -> float:
    """Exact mean mark total of a Hawkes window with Poisson(h) offspring and
    exponential(beta) delays, points past the horizon censored:
    lam E M int_0^T E K_u du with E K_u = (1 - h exp(-beta (1-h) u)) / (1-h)
    the expected cascade size within lag u."""
    d = 1.0 - h
    return lam * mark_mean * (horizon / d + h * math.expm1(-beta * d * horizon) / (beta * d * d))


def _run_flags(seed: int, reps: int, workers: int) -> tuple:
    return ("--seed", str(seed), "--reps", str(reps), "--workers", str(workers))


def _hawkes_windows(seed: int, tiny: bool, workers: int) -> list:
    """Hawkes windows at lam T = 1e4: the window sampler dominates."""
    reps = 5 if tiny else 50
    run = _run_flags(seed, reps, workers)
    gauss = ("verify", "gauss", "--scenario", "hawkes-poisson", "--h", "0.5", "--T", "1e4", "--mark", "exp:1")
    bci = ("verify", "bci", "--h", "0.5", "--T", "1e4")
    mean = censored_mean(1.0, 1e4, 0.5, 1.0, 1.0)
    return [
        Command(gauss, run, work=reps, exact_mean=mean),
        Command(bci, run, work=reps, exact_mean=mean),
        Command(bci + ("--delta-scale", "1e6"), run, expect=3, work=reps, exact_mean=mean),
    ]


def _small_reps(seed: int, tiny: bool, workers: int) -> list:
    """~0.1 ms interference fields and cascades: driver and hand-off costs
    dominate, through both driver paths (_run_indexed and verify_moments'
    own pool)."""
    fields, cascades = (200, 5000) if tiny else (5000, 100000)
    interference = (
        "verify", "gauss", "--scenario", "interference", "--lambda", "50", "--R", "1",
        "--alpha", "4", "--power", "exp:1", "--tail-eps", "10",
    )
    return [
        Command(interference, _run_flags(seed, fields, workers), work=fields),
        Command(("verify", "moments", "--offspring", "poisson:0.5"), _run_flags(seed, cascades, workers), work=cascades),
        Command(("verify", "moments", "--offspring", "binomial:3,0.2"), _run_flags(seed, cascades, workers), work=cascades),
    ]


# Each workload ends with one cheap command of the other half (under 2% of
# its pass), so that every layer's time is measured, and non-zero, on both.
CALCULATOR_SMOKE = ("moments", "series", "--offspring", "poisson:0.5", "--m", "4")


def _simulation_smoke(seed: int) -> list:
    """Tiny Hawkes windows and interference fields whose bounds are vacuous,
    so the verdict cannot fail by chance."""
    run = _run_flags(seed, 20, 1)
    return [
        Command(
            ("verify", "gauss", "--scenario", "hawkes-poisson", "--h", "0.5", "--T", "10"),
            run,
            exact_mean=censored_mean(1.0, 10.0, 0.5, 1.0, 1.0),
        ),
        Command(
            ("verify", "gauss", "--scenario", "interference", "--lambda", "1", "--R", "1",
             "--alpha", "4", "--power", "exp:1", "--tail-eps", "10"),
            run,
        ),
    ]


def verify(seed: int, tiny: bool, workers: int | None) -> list:
    """Every simulation: Hawkes windows on 1 worker (the single-thread
    sampler baseline), then small replications on 2 workers."""
    return (
        _hawkes_windows(seed, tiny, workers or 1)
        + _small_reps(seed, tiny, workers or 2)
        + [Command(CALCULATOR_SMOKE)]
    )


def _delta_argv(law: str, lambda_leb: str) -> tuple:
    family, _, params = law.partition(":")
    if family == "poisson":
        return ("delta", "poisson", "--h", params, "--lambda-leb", lambda_leb)
    h, p = params.split(",")
    return ("delta", "binomial", "--h", h, "--p", p, "--lambda-leb", lambda_leb)


def _certify_pair(law: str, lambda_leb: str) -> list:
    delta = _delta_argv(law, lambda_leb)
    cumulant = (
        "tail", "cumulant", "--offspring", law, "--lambda-leb", lambda_leb,
        "--m-max", str(CUMULANT_M_MAX),
    )
    return [
        Command(delta),
        Command(cumulant, work=CUMULANT_M_MAX - 2, delta_from=" ".join(delta)),
    ]


def _series(law: str) -> list:
    return [Command(("moments", "series", "--offspring", law, "--m", str(m))) for m in range(1, SERIES_M_MAX + 1)]


def _gw(law: str) -> Command:
    return Command(("moments", "gw", "--offspring", law, "--n", str(CUMULANT_M_MAX)))


def _calculators() -> list:
    return [Command(tuple(text.split())) for text in CALCULATORS]


def certify(seed: int, tiny: bool, workers: int | None) -> list:
    """Every calculator, the delta -> cumulant certificate sweep dominating,
    then the simulation smoke commands."""
    rng = random.Random(seed)
    laws = (rng.choice(LAWS),) if tiny else LAWS
    commands = []
    for law in laws:
        commands += _certify_pair(law, rng.choice(LAMBDA_LEB))
    commands += _series(rng.choice(LAWS))
    if not tiny:
        commands.append(_gw(rng.choice(LAWS)))
    return commands + _calculators() + _simulation_smoke(seed)


WORKLOADS = {
    "verify": verify,
    "certify": certify,
}


def reference_commands() -> list:
    """Every command any seed can make, in an order that runs each delta
    before the cumulant check that reads it."""
    commands = verify(1, True, None)
    for law in LAWS:
        for lambda_leb in LAMBDA_LEB:
            commands += _certify_pair(law, lambda_leb)
        commands += _series(law) + [_gw(law)]
    return commands + _calculators() + _simulation_smoke(1)


# ---------------------------------------------------------------------------
# running


def load_cli(root: Path):
    """Import chaos_bounds.cli from the checkout's own src/, never from an
    installed copy."""
    src = root / "src"
    if not (src / "chaos_bounds" / "cli.py").is_file():
        raise BenchError(f"no chaos_bounds sources under {src}")
    sys.path.insert(0, str(src))
    import chaos_bounds.cli as cli

    if Path(cli.__file__).resolve().parent != (src / "chaos_bounds").resolve():
        raise BenchError(f"imported {cli.__file__}, not the checkout's sources")
    return cli


def invoke(cli, argv: list) -> tuple:
    """Run one command in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed command, not a failed benchmark
            code = -1
            traceback.print_exc()
    return code, out.getvalue(), err.getvalue()


def run_pass(cli, commands: list) -> tuple:
    """Run the commands in order; return (seconds from the first command to
    the last verdict, {label: (code, stdout, stderr)})."""
    results = {}
    t0 = perf_counter()
    for cmd in commands:
        argv = list(cmd.argv) + list(cmd.run)
        if cmd.delta_from is not None:
            try:
                delta = json.loads(results[cmd.delta_from][1])["delta"]
            except (KeyError, ValueError, TypeError):
                results[cmd.label] = (-1, "", f"no delta from {cmd.delta_from!r}")
                continue
            argv += ["--delta", repr(float(delta))]
        results[cmd.label] = invoke(cli, argv)
    return perf_counter() - t0, results


# ---------------------------------------------------------------------------
# checks


def frozen_view(argv: tuple, payload: dict) -> dict:
    """The fields of a report that no seed, size or draw order may change."""
    if argv[0] != "verify":
        return payload
    d = payload["details"]
    if argv[1] == "gauss":
        view = {"bounds": d["bounds"]}
        if d["standardization"]["kind"] == "analytic":
            view["standardization"] = {k: d["standardization"][k] for k in ("mean", "sd")}
        return view
    if argv[1] == "bci":
        return {
            "gamma": d["gamma"],
            "delta": d["delta"],
            "delta_base": d["delta_base"],
            "delta_case": d["delta_case"],
            "x": [t["x"] for t in d["tails"]],
            "tail_bound": [t["bound"] for t in d["tails"]],
            "cumulant": d["cumulant"],
        }
    return {"theory": [c["theory"] for c in d["per_moment"]]}


def compare(got, ref, path: str = "") -> list:
    """Differences between a report and its frozen reference.  Numbers match
    within REL_TOL; keys the reference lacks are ignored."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object, got {got!r}"]
        problems = []
        for key, value in ref.items():
            if key not in got:
                problems.append(f"{path}.{key}: missing")
            else:
                problems += compare(got[key], value, f"{path}.{key}")
        return problems
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: expected {len(ref)} items, got {got!r}"]
        problems = []
        for i, (g, r) in enumerate(zip(got, ref)):
            problems += compare(g, r, f"{path}[{i}]")
        return problems
    numeric = isinstance(ref, (int, float)) and not isinstance(ref, bool)
    if numeric and isinstance(got, (int, float)) and not isinstance(got, bool):
        if got == ref:
            return []
        if math.isfinite(got) and math.isfinite(ref) and abs(got - ref) <= REL_TOL * max(abs(got), abs(ref)):
            return []
    elif got == ref and type(got) is type(ref):
        return []
    return [f"{path}: {got!r} != frozen {ref!r}"]


def _statistical(cmd: Command, payload: dict) -> list:
    """Checks of simulated fields against exact theory."""
    problems = []
    if payload.get("passed") is not (cmd.expect == 0):
        problems.append(f"verdict passed={payload.get('passed')!r}, expected exit {cmd.expect}")
    d = payload["details"]
    asked = int(cmd.run[cmd.run.index("--reps") + 1])
    if d.get("n_reps", d.get("n_draws")) != asked:
        problems.append(f"ran {d.get('n_reps', d.get('n_draws'))!r} replications, asked for {asked}")
    if cmd.exact_mean is not None:
        std = d["standardization"]
        if std["kind"] == "empirical":
            n_cal = std.get("n_calibration", d["n_reps"])
            tol = MEAN_SE * std["sd"] / math.sqrt(n_cal)
        else:
            tol = 1e-6 * abs(cmd.exact_mean)
        if not abs(std["mean"] - cmd.exact_mean) <= tol:
            problems.append(f"window mean {std['mean']!r} is off the exact {cmd.exact_mean!r} by more than {tol:.4g}")
    return problems


def check(cmd: Command, result: tuple, reference: dict) -> list:
    """Every problem with one command's result; empty when it is correct."""
    code, out, err = result
    problems = [] if code == cmd.expect else [f"exit {code}, expected {cmd.expect}: {err.strip()[-300:]}"]
    try:
        payload = json.loads(out)
    except ValueError:
        return problems + ["stdout is not a JSON report"]
    ref = reference.get(cmd.label)
    try:
        if ref is None:
            problems.append("no frozen reference")
        else:
            problems += compare(frozen_view(cmd.argv, payload), ref)
        if cmd.argv[0] == "verify":
            problems += _statistical(cmd, payload)
    except (KeyError, TypeError) as exc:
        problems.append(f"report lacks a field the check reads: {exc!r}")
    return problems


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)
