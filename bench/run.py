"""Run one benchmark workload against the checkout's own sources and print
its metrics, the last line being one JSON object.

    python3 bench/run.py --workload verify --seed 1 --seconds 50 --trace 0

A run times set-up in fresh interpreters, runs one untimed warm-up pass of
the workload's commands, then repeats timed passes with the same inputs
until --seconds have gone by.  With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 passes
alternate untraced and traced, and the metrics are the per-layer ones.
Every command of every pass is checked (see workloads.py); a pass whose
output differs from the warm-up pass counts its commands as failed.  Each
run also writes its environment, metrics and failures (and, traced, the
spans of its first traced pass) to bench/out/.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUP_CODE = "import chaos_bounds.cli as cli; cli.build_parser()"
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
MIN_PASSES = 3


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _python(*args: str) -> tuple:
    """Run a fresh interpreter on the checkout's sources: (seconds, stderr)."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=120
    )
    seconds = perf_counter() - t0
    if proc.returncode != 0:
        raise workloads.BenchError(f"{' '.join(args)} failed: {proc.stderr.strip()[-500:]}")
    return seconds, proc.stderr


def import_times() -> tuple:
    """(whole chaos_bounds import, scipy's share) in seconds, from -X importtime."""
    _, log = _python("-X", "importtime", "-c", "import chaos_bounds.cli")
    rows = []
    for line in log.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            level = (len(parts[2]) - len(parts[2].lstrip()) - 1) // 2
            rows.append((level, parts[2].strip(), int(parts[1]) * 1e-6))
    total = scipy = 0.0
    ancestors = []
    # a module is printed after the modules it imports, so walk backwards
    for level, name, cumulative in reversed(rows):
        del ancestors[level:]
        if level == 0 and name.split(".")[0] == "chaos_bounds":
            total += cumulative
        if name.split(".")[0] == "scipy" and not any(a.split(".")[0] == "scipy" for a in ancestors):
            scipy += cumulative
        ancestors.append(name)
    return total, scipy


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "seed": seed,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child, in MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smallest sizes, one pass of each kind (for tests)")
    p.add_argument("--workers", type=int, default=None, help="override the workload's worker count (for tests)")
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        p.error("--seed must be a 64-bit unsigned integer")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def measure(args, cli, commands, reference) -> dict:
    """Warm-up pass, then timed passes until the time is up."""
    tracer = spans.Tracer()
    gc.collect()
    _, first = workloads.run_pass(cli, commands)
    problems = {c.label: workloads.check(c, first[c.label], reference) for c in commands}
    problems = {label: p for label, p in problems.items() if p}
    run = {"attempted": len(commands), "failed": len(problems), "walls": {"untraced": [], "traced": []}, "layers": []}
    first_spans = None
    min_passes = 1 if args.tiny else MIN_PASSES
    deadline = perf_counter() + args.seconds
    while True:
        traced = args.trace == 1 and len(run["walls"]["traced"]) < len(run["walls"]["untraced"])
        gc.collect()
        if traced:
            tracer.install()
        try:
            wall, results = workloads.run_pass(cli, commands)
        finally:
            tracer.uninstall()
        run["walls"]["traced" if traced else "untraced"].append(wall)
        if traced:
            pass_spans = tracer.take()
            run["layers"].append(spans.layer_metrics(pass_spans))
            first_spans = first_spans or pass_spans
        for cmd in commands:
            if results[cmd.label][:2] != first[cmd.label][:2]:
                problems.setdefault(cmd.label, []).append("output differs from the warm-up pass")
            if cmd.label in problems:
                run["failed"] += 1
        run["attempted"] += len(commands)
        kinds = ("untraced", "traced") if args.trace else ("untraced",)
        if perf_counter() >= deadline and min(len(run["walls"][k]) for k in kinds) >= min_passes:
            break
    run["problems"] = problems
    run["absent"] = tracer.absent
    run["spans"] = first_spans or []
    return run


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cli = workloads.load_cli(ROOT)
        reference = workloads.load_reference()
        env = environment(args.seed)
        commands = workloads.WORKLOADS[args.workload](args.seed, args.tiny, args.workers)
        repeats = 1 if args.tiny else (IMPORTTIME_REPEATS if args.trace else SETUP_REPEATS)
        if args.trace:
            imports = [import_times() for _ in range(repeats)]
        else:
            setup = [_python("-c", SETUP_CODE)[0] for _ in range(repeats)]
    except (workloads.BenchError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2

    run = measure(args, cli, commands, reference)
    work = sum(c.work for c in commands)
    untraced = run["walls"]["untraced"]
    if args.trace:
        first = run["layers"][0]  # counts repeat exactly from pass to pass; times vary
        metrics = {
            name: value if isinstance(value, int) else statistics.median(p[name] for p in run["layers"])
            for name, value in first.items()
        }
        metrics["import.total_s"] = statistics.median(t for t, _ in imports)
        metrics["import.scipy_s"] = statistics.median(s for _, s in imports)
        metrics["trace.overhead_frac"] = statistics.mean(run["walls"]["traced"]) / statistics.mean(untraced) - 1.0
        wanted = spec["per_layer"]
    else:
        # Means over the run, i.e. its throughput: on a shared machine whose
        # speed drifts between states lasting tens of seconds, run means
        # spread less across runs than medians of passes (bench/README.md).
        metrics = {
            "wall_s": sum(untraced) / len(untraced),
            "work_per_s": work * len(untraced) / sum(untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb(),
        }
        wanted = spec["end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        print(f"bench: metrics {sorted(metrics)} do not match BENCHMARK.json", file=sys.stderr)
        return 2

    print("env " + json.dumps(env, sort_keys=True))
    print(
        f"workload {args.workload}: {len(commands)} commands and {work} work units a pass; "
        f"{len(untraced)} untraced and {len(run['walls']['traced'])} traced timed passes "
        f"after one warm-up pass"
    )
    for label, problems in run["problems"].items():
        print(f"FAIL {label}: {'; '.join(problems)}")
    for name in run["absent"]:
        print(f"absent, not traced: {name}")
    print(f"{'fail_frac':34s} {run['failed'] / run['attempted']:>16.6g} ratio ({run['failed']}/{run['attempted']} commands)")
    for m in wanted:
        print(f"{m['name']:34s} {metrics[m['name']]:>16.6g} {m['unit']}")

    OUT.mkdir(exist_ok=True)
    record = {
        "env": env,
        "workload": args.workload,
        "trace": args.trace,
        "metrics": metrics,
        "walls": run["walls"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "problems": run["problems"],
        "absent": run["absent"],
    }
    if args.trace:
        record["layers_per_pass"] = run["layers"]
        base = min((s.t0 for s in run["spans"]), default=0.0)
        record["span_fields"] = list(spans.Span._fields)
        record["spans"] = [[s.cat, s.name, s.t0 - base, s.t1 - base, *s[4:]] for s in run["spans"]]
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
