"""Cold start: the calculators load neither numpy nor scipy nor the
``simulate`` module; the package resolves simulate's names on first use, and
the verify commands load numpy and ``simulate`` but never scipy.

Module loading is per process, so each check runs in a fresh interpreter on
the same copy of the package that this test imported.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chaos_bounds
import chaos_bounds.cli as cli

HEAVY = ("numpy", "scipy", "chaos_bounds.simulate")
CALCULATORS = (
    "tail bci --gamma 0 --delta 100 --x 10",
    "tail cumulant --offspring poisson:0.5 --lambda-leb 1e4 --delta 0.36",
    "tail cumulant --offspring poisson:0.5 --lambda-leb 1e4 --delta 0.36 --mark gauss:1",
    "bounds hawkes-poisson --lambda 1 --leb 1e6 --h 0.5",
    "bounds hawkes-binomial --lambda 1 --leb 1e6 --h 3 --p 0.2",
    "moments pmf --offspring binomial:3,0.2 --k-max 5",
    "moments factorial --offspring binomial:3,0.2 --n 4",
    "moments series --offspring binomial:3,0.2 --m 4",
)
VERIFY = (
    "verify gauss --scenario hawkes-poisson --h 0.5 --T 10 --reps 20 --seed 1",
    "verify bci --h 0.5 --T 10 --reps 50 --seed 1",
    "verify moments --offspring poisson:0.3 --reps 200",
)


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter on this copy of the package."""
    env = dict(os.environ)
    src = str(Path(chaos_bounds.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )


def fresh(code: str):
    """Run code in a fresh interpreter; return the JSON it prints last."""
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_calculators_load_no_numpy_scipy_or_simulate():
    got = fresh(f"""
import contextlib, io, json, sys
import chaos_bounds, chaos_bounds.cli as cli
loaded = lambda: [m for m in {HEAVY!r} if m in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv.split()) for argv in {CALCULATORS!r}]
    calculators = loaded()
    codes += [cli.main(argv.split()) for argv in {VERIFY!r}]
print(json.dumps([codes, calculators, loaded()]))
""")
    codes, after_calculators, after_verify = got
    assert codes == [0] * (len(CALCULATORS) + len(VERIFY))
    assert after_calculators == []
    assert after_verify == ["numpy", "chaos_bounds.simulate"]


def test_verify_runs_with_scipy_blocked(capsys):
    # a None entry in sys.modules makes every import of scipy raise
    proc = run_fresh(f"""
import sys
sys.modules["scipy"] = None
from chaos_bounds.cli import main
sys.exit(main({VERIFY[0]!r}.split()))
""")
    assert proc.returncode == 0, proc.stderr
    assert '"kind": "gaussian-bound"' in proc.stdout
    assert cli.main(VERIFY[0].split()) == 0
    assert proc.stdout == capsys.readouterr().out


def test_simulate_names_resolve_lazily():
    got = fresh("""
import json, sys
import chaos_bounds
before = "chaos_bounds.simulate" in sys.modules
verify_bci = chaos_bounds.verify_bci
print(json.dumps([before, verify_bci is chaos_bounds.simulate.verify_bci]))
""")
    assert got == [False, True]


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        chaos_bounds.no_such_name
    assert not hasattr(chaos_bounds, "no_such_name")


LISTED = ("verify_bci", "ClusterModel", "dkw_margin", "simulate", "progeny_moment_table")


def test_dir_lists_the_lazy_names_without_loading_them():
    got = fresh(f"""
import json, sys
import chaos_bounds
listed = dir(chaos_bounds)
print(json.dumps([[n in listed for n in {LISTED!r}], "chaos_bounds.simulate" in sys.modules]))
""")
    assert got == [[True] * len(LISTED), False]


def test_star_import_binds_the_lazy_names():
    namespace = {}
    exec("from chaos_bounds import *", namespace)
    assert all(name in namespace for name in LISTED)
    assert namespace["verify_bci"] is chaos_bounds.simulate.verify_bci
    assert not any(name.startswith("_") for name in chaos_bounds.__all__)
