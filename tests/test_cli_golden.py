"""CLI goldens: stdout and exit code of in-process ``cli.main`` calls, frozen
in ``cli_golden.json``.

Every leaf command runs in its required-flags-only form and with all of its
optional flags, next to usage errors (exit 1), domain errors (exit 2), a
failing verification (exit 3) and config files.  Calculator stdout must match
byte for byte.  Verify commands run at small --reps; their exit code must
match and their report (JSON, or CSV rows) must agree within 1e-12 relative,
so a last-ulp change in numpy or scipy does not fail the test.

Argv placeholders: ``{config}`` is a file holding the case's JSON config,
``{missing}`` a path that does not exist, ``{out}`` a writable path.

Re-freeze (only when an output is meant to change) with

    PYTHONPATH=src python3 tests/test_cli_golden.py [CASE_ID ...]

which re-runs only the named cases (their pytest ids, the argv with the
config appended) and leaves every other case's bytes as they are; with no
case id it re-freezes every case.
"""
import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

from chaos_bounds import cli

GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"
REL_TOL = 1e-12

# (argv, config object or None)
CASES = [
    # bounds
    ("bounds first-chaos --m3 1.5 --m4 3.2", None),
    ("bounds shot-noise --i2 1 --i3 0.5 --i4 0.4", None),
    ("bounds compound-cluster --lambda 1 --leb 1e4 --ez3 64 --ez4 832", None),
    ("bounds compound-cluster --lambda 1 --leb 1e4 --ez3 64 --ez4 832 --mark exp:1", None),
    ("bounds hawkes-poisson --lambda 1 --leb 1e6 --h 0.5", None),
    ("bounds hawkes-poisson --lambda 1 --leb 1e6 --h 0.5 --mark exp:2", None),
    ("bounds hawkes-binomial --lambda 1 --leb 1e6 --h 3 --p 0.2", None),
    ("bounds hawkes-binomial --lambda 1 --leb 1e6 --h 3 --p 0.2 --mark uniform:2", None),
    ("bounds interference --lambda 50 --R 1 --alpha 4", None),
    ("bounds interference --lambda 50 --R 1 --alpha 4 --power exp:1", None),
    # delta
    ("delta poisson --h 0.5 --lambda-leb 1e4", None),
    ("delta poisson --h 0.5 --lambda-leb 1e4 --gamma 0.5", None),
    ("delta binomial --h 2 --p 0.25 --lambda-leb 1e4", None),
    ("delta binomial --h 2 --p 0.25 --lambda-leb 1e4 --gamma 1", None),
    # tail
    ("tail bci --gamma 0 --delta 100 --x 10", None),
    ("tail insurance --lambda 1 --h 0.5 --mu 1 --T 64 --k 2", None),
    ("tail insurance --lambda 1 --h 0.5 --mu 1 --T 64 --k 2 --strict", None),
    ("tail interval --lambda 1 --h 0.5 --mu 1 --T 1e4 --x 4", None),
    ("tail interval --lambda 1 --h 0.5 --mu 1 --T 1e4 --x 4 --strict", None),
    ("tail nacc --gamma 1 --delta 64", None),
    ("tail nacc --gamma 1 --delta 64 --c0 2", None),
    ("tail mdp --lower 1 --upper 2", None),
    ("tail cumulant --offspring poisson:0.5 --lambda-leb 1e4 --delta 0.36", None),
    ("tail cumulant --offspring binomial:3,0.2 --lambda-leb 1e4 --delta 0.5 --mark exp:1 --gamma 1 --m-max 8", None),
    # moments
    ("moments gw --offspring poisson:0.5 --n 6", None),
    ("moments factorial --offspring binomial:3,0.2 --n 5", None),
    ("moments series --offspring poisson:0.5 --m 3", None),
    ("moments series --offspring binomial:2,0.25 --m 4 --rel-tol 1e-6", None),
    ("moments pmf --offspring poisson:0.5 --k-max 5", None),
    ("moments pmf --offspring binomial:2,0.25 --k-max 5", None),
    ("moments abel --nu 0.2 --m 6", None),
    # verify
    ("verify moments --offspring poisson:0.3 --reps 200", None),
    ("verify moments --offspring binomial:3,0.2 --reps 5000 --seed 2 --workers 2", None),
    ("verify moments --offspring poisson:0.5 --reps 30 --seed 1 --format csv", None),
    ("verify gauss --scenario compound-poisson --lambda-leb 100 --reps 20 --seed 1", None),
    ("verify gauss --scenario compound-poisson --lambda-leb 100 --reps 20 --seed 1 --mark exp:1 --workers 2", None),
    ("verify gauss --scenario hawkes-poisson --h 0.5 --T 10 --reps 20 --seed 1", None),
    ("verify gauss --scenario hawkes-poisson --h 0.5 --T 10 --reps 20 --seed 1 --lambda 2 --beta 0.5 --mark gauss:1", None),
    ("verify gauss --scenario hawkes-binomial --h 2 --p 0.25 --T 10 --reps 20 --seed 1", None),
    ("verify gauss --scenario interference --lambda 1 --R 1 --alpha 4 --reps 20 --seed 1", None),
    ("verify gauss --scenario interference --lambda 1 --R 1 --alpha 4 --reps 20 --seed 1 --power exp:1 --tail-eps 10", None),
    ("verify gauss --scenario interference --lambda 1 --R 1 --alpha 4 --reps 10 --seed 1 --format csv", None),
    ("verify gauss --scenario interference --lambda 50 --R 1 --alpha 4 --power gauss:1 --reps 200 --seed 1", None),
    ("verify bci --h 0.5 --T 10 --reps 50 --seed 1", None),
    ("verify bci --h 0.5 --T 10 --reps 50 --seed 1 --lambda 2 --beta 2 --mark exp:1 --delta-scale 2 --x-max 2 --x-step 1 --m-max 6", None),
    ("verify bci --h 0.5 --T 10 --reps 50 --seed 1 --delta-scale 1e6", None),
    # usage errors: exit 1
    ("", None),
    ("bogus", None),
    ("bounds", None),
    ("bounds first-chaos --m3 1.5", None),
    ("delta poisson --h 0.5", None),
    ("delta poisson --h abc --lambda-leb 1e4", None),
    ("bounds hawkes-binomial --lambda 1 --leb 1e4 --h 2.5 --p 0.2", None),
    ("moments gw --offspring poisson:0.5 --n 2.5", None),
    ("tail cumulant --offspring poisson:0.5 --lambda-leb 1e4", None),
    ("tail bci --gamma 0 --delta 1 --x 1 --bogus 1", None),
    ("verify gauss --reps 10", None),
    ("verify gauss --scenario nope", None),
    ("verify gauss --scenario compound-poisson --reps 10", None),
    ("verify gauss --scenario compound-poisson --lambda-leb 1e3 --lambda 2 --reps 10", None),
    ("verify gauss --scenario compound-poisson --lambda-leb 100 --reps 20 --seed 1 --beta 2 --mark exp:1 --workers 2", None),
    ("verify gauss --scenario hawkes-poisson --h 0.5 --reps 10", None),
    ("verify gauss --scenario hawkes-binomial --h 2.5 --p 0.2 --T 10 --reps 10", None),
    ("verify gauss --scenario interference --lambda 1 --R 1 --reps 10", None),
    ("verify bci --T 10 --reps 10", None),
    ("verify moments --offspring poisson:0.5 --format xml", None),
    ("verify moments --offspring poisson:0.5 --reps 1.5", None),
    # domain errors: exit 2
    ("delta poisson --h 0.5 --lambda-leb -3", None),
    ("moments gw --offspring weibull:1 --n 2", None),
    ("moments gw --offspring factorial:0.5,,0.1 --n 2", None),
    ("moments gw --offspring poisson:0.5 --n 200", None),
    ("moments pmf --offspring poisson:0.5 --k-max 0", None),
    ("moments pmf --offspring factorial:0.5 --k-max 3", None),
    ("bounds hawkes-poisson --lambda 1 --leb 1 --h 0.5 --mark const", None),
    ("bounds hawkes-binomial --lambda 1 --leb 1e4 --h 2 --p 0.6", None),
    ("tail cumulant --offspring poisson:1.5 --lambda-leb 1e4 --delta 1", None),
    ("verify bci --h 0.5 --T 10 --reps 10 --delta-scale -1", None),
    ("verify bci --h 0.5 --T 10 --reps 10 --x-step 0", None),
    ("verify gauss --scenario interference --lambda 1 --R 1 --alpha 2 --reps 10", None),
    ("verify moments --offspring poisson:0.5 --reps 0", None),
    ("verify moments --offspring poisson:0.5 --reps 1", None),
    ("verify moments --offspring poisson:0.5 --reps 10 --workers 0", None),
    ("verify moments --offspring poisson:0.5 --reps 10 --seed -1", None),
    ("verify moments --offspring factorial:0.5 --reps 10", None),
    ("verify gauss --scenario hawkes-poisson --h 0.5 --T 10 --lambda 0 --reps 10", None),
    ("verify bci --h 0.5 --T 10 --lambda 0 --reps 10", None),
    ("verify gauss --scenario hawkes-poisson --h 0.5 --T 10 --power bogus --reps 10", None),
    ("verify gauss --scenario interference --lambda 1 --R 1 --alpha 4 --power custom:1,2 --reps 10", None),
    ("verify gauss --scenario hawkes-poisson --h 0.9 --T 1e306 --reps 2", None),
    ("verify bci --h 0.9 --T 1e306 --reps 2", None),
    # config files and output
    ("delta poisson --config {config}", {"h": 0.5, "lambda-leb": 1e4}),
    ("delta poisson --config {config} --h 0.1", {"h": 0.5, "lambda-leb": 1e4}),
    ("delta poisson --config {config}", {"--h": 0.5, "--lambda-leb": 1e4}),
    ("delta binomial --config {config}", {"h": 2, "p": 0.25, "lambda-leb": 1e4}),
    ("tail cumulant --config {config}", {"offspring": "poisson:0.5", "lambda_leb": 1e4, "delta": 0.36, "m_max": 6}),
    ("tail insurance --config {config}", {"lambda": 1.0, "h": 0.5, "mu": 1.0, "T": 64.0, "k": 2.0, "strict": True}),
    ("delta poisson --config {config}", {"h": 0.5, "lambda-leb": 100, "bogus": 1}),
    ("delta poisson --config {config}", [1, 2]),
    ("delta poisson --config {missing}", None),
    ("delta poisson --h 0.5 --lambda-leb 1e4 --output {out}", None),
    ("verify moments --config {config}", {"offspring": "poisson:0.5", "reps": 200, "seed": 3}),
    ("verify bci --config {config} --seed 2", {"h": 0.5, "T": 10.0, "reps": 50, "seed": 1, "x-max": 2.0}),
    # help
    ("--help", None),
    ("verify --help", None),
]

CALCULATOR_GROUPS = ("bounds", "delta", "tail", "moments")


def run(argv: str, config, tmp: Path) -> tuple:
    """Run one case in-process: (exit code, stdout)."""
    config_path = tmp / "config.json"
    if config is not None:
        config_path.write_text(json.dumps(config))
    paths = {"config": config_path, "missing": tmp / "absent.json", "out": tmp / "out.txt"}
    tokens = [tok.format(**paths) for tok in argv.split()]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(tokens)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def case_id(argv: str, config) -> str:
    return argv if config is None else f"{argv} {json.dumps(config, sort_keys=True)}"


def parse_report(text: str):
    if text.startswith("seed_index,value\n"):
        return [[float(v) for v in row.split(",")] for row in text.splitlines()[1:]]
    return json.loads(text)


def close(got, want) -> bool:
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(close(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(close, got, want))
    if isinstance(want, float) and type(got) in (int, float):
        return got == want or math.isclose(got, want, rel_tol=REL_TOL)
    return got == want and type(got) is type(want)


@pytest.fixture
def golden():
    return json.loads(GOLDEN.read_text())


def check_case(argv: str, config, golden: dict, tmp: Path) -> None:
    """Run one case and compare it with its golden."""
    want = golden[case_id(argv, config)]
    code, out = run(argv, config, tmp)
    assert code == want["code"], argv
    if argv.split()[:1] == ["verify"] and want["stdout"] and not argv.endswith("--help"):
        assert close(parse_report(out), parse_report(want["stdout"])), argv
    else:
        assert out == want["stdout"], argv
    if "{out}" in argv:
        assert (tmp / "out.txt").read_text() == out


@pytest.mark.parametrize("argv, config", CASES, ids=[case_id(a, c) for a, c in CASES])
def test_cli_golden(argv, config, golden, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    check_case(argv, config, golden, tmp_path)


def test_main_builds_the_parser_once(golden, tmp_path, monkeypatch):
    """main builds its parser on the first call and reuses it after that."""
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    calls = []
    build = cli.build_parser

    def counting_build():
        calls.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    monkeypatch.setattr(cli, "_PARSER", None)
    for argv, config in CASES[:30]:
        check_case(argv, config, golden, tmp_path)
    assert len(calls) == 1


def test_cached_parser_keeps_no_state(golden, tmp_path, monkeypatch):
    """Every golden call, run twice on one cached parser (the second time in
    reverse order, so each call follows different ones), still matches:
    help, usage errors, domain errors and config files leave nothing behind
    in the parser."""
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    monkeypatch.setattr(cli, "_PARSER", None)
    for cases in (CASES, CASES[::-1]):
        for argv, config in cases:
            check_case(argv, config, golden, tmp_path)


def freeze(ids: list[str]) -> None:
    import os
    import tempfile

    os.environ.pop(cli.SEED_ENV_VAR, None)
    cases = {case_id(argv, config): (argv, config) for argv, config in CASES}
    unknown = sorted(set(ids) - set(cases))
    if unknown:
        raise SystemExit(f"no golden case with id {', '.join(map(repr, unknown))}")
    golden = json.loads(GOLDEN.read_text()) if ids else {}
    for cid in ids or cases:
        argv, config = cases[cid]
        with tempfile.TemporaryDirectory() as tmp:
            code, out = run(argv, config, Path(tmp))
        golden[cid] = {"code": code, "stdout": out}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"froze {len(ids or cases)} of {len(golden)} cases into {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    freeze(sys.argv[1:])
