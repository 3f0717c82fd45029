"""The repo benchmark: three workloads, end to end or per layer.

    python3 repobench/run.py --workload paper_suites --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a checkout (it synthesizes with ``src/repro``).
Prints one row per task and per request kind, the provenance, and as
its last line one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer ones with ``--trace 1``). Exits 1 when a correctness check
fails and 2 when the program cannot be found or run. NOTES.md says what
each workload and metric is for.

Each measured pass runs in a child process, so peak memory is that of
the synthesizing process and no import or cache state leaks between
passes. ``--trace 1`` runs the workload twice, untraced and traced,
under two different ``PYTHONHASHSEED`` values: the pair gives the
tracing overhead, and the two must agree task for task (determinism).
It skips the set-ups, since it reports no ``setup_s``, and runs the
in-process pair side by side.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "repobench")
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("paper_suites", "tdd_service", "long_sequences")
# Workload size per second of --seconds: long_sequences runs this many
# rounds of the solved Pex pool, tdd_service opens about this many
# sessions per client. At --seconds 25 they measure about 30 s and 19 s
# on a 2-CPU x86 host. paper_suites has a fixed size (E1-E3 plus E4),
# about 55 s there, whatever --seconds says.
SCALE_PER_SECOND = {"long_sequences": 0.16, "tdd_service": 2.0}
SETUP_TRIALS = 5
# Every child process is killed once the run has taken this long, so a
# stuck run still exits (non-zero) within the 180 s a run may take.
RUN_DEADLINE_S = 170.0
_START = time.monotonic()

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "task_s_p50": "s",
    "task_s_p75": "s",
    "req_s_p50": "s",
    "req_s_p95": "s",
    "req_per_s": "1/s",
    "solved": "count",
    "holdout_ok": "count",
    "fail_share": "share",
    "peak_rss_mb": "MB",
}


def child_env(hash_seed: Optional[str]) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, BENCH_DIR])
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return env


def _check(cmd: List[str], env: Dict[str, str]) -> None:
    remaining = RUN_DEADLINE_S - (time.monotonic() - _START)
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, timeout=max(1.0, remaining),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:3]} failed: {proc.stderr.strip()[-800:]}")


# -- setup ---------------------------------------------------------------

_IMPORT_AND_BUILD = (
    "import sys\n"
    "from repro.domains.registry import get_domain\n"
    "import repro.suites, repro.lasy.runner\n"
    "for name in sys.argv[1:]:\n"
    "    get_domain(name).dsl()\n"
)


def setup_times(workload: str, workdir: str) -> List[float]:
    """Set-up, repeated: a fresh interpreter importing the package and
    building the workload's DSLs, or for the service a server starting
    over a journal that holds warm sessions (restore included)."""
    env = child_env(None)
    if workload == "tdd_service":
        from repro.suites import ALL_SUITES
        from workloads import ServerProcess

        journal = os.path.join(workdir, "setup-journal.jsonl")
        server = ServerProcess(ROOT, journal)
        try:
            for bench in ("surname-initial", "transpose", "add-classes"):
                source = next(
                    b.source for s in ALL_SUITES.values() for b in s if b.name == bench
                )
                response = server.request({"op": "synthesize", "program": source})
                if not response.get("ok"):
                    raise RuntimeError(f"priming request failed: {response}")
        finally:
            server.close()
        times = []
        for _ in range(SETUP_TRIALS):
            start = time.perf_counter()
            server = ServerProcess(ROOT, journal)
            try:
                stats = server.request({"op": "stats"})
                if stats.get("cache", {}).get("restored", 0) < 1:
                    raise RuntimeError("server restored no session from its journal")
                times.append(time.perf_counter() - start)
            finally:
                server.close()
        return times
    domains = ["strings", "tables", "xml", "pexfun"] if workload == "paper_suites" else ["pexfun"]
    cmd = [sys.executable, "-c", _IMPORT_AND_BUILD] + domains
    _check(cmd, env)  # warm the bytecode cache; not timed
    times = []
    for _ in range(SETUP_TRIALS):
        start = time.perf_counter()
        _check(cmd, env)
        times.append(time.perf_counter() - start)
    return times


# -- passes ----------------------------------------------------------------


def run_pass(
    args, workdir: str, traced: bool, hash_seed: Optional[str], tag: str
) -> Dict[str, Any]:
    out = os.path.join(workdir, f"pass-{tag}.json")
    cmd = [
        sys.executable, os.path.join(BENCH_DIR, "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--workdir", workdir, "--out", out,
    ] + (["--traced"] if traced else [])
    if args.workload in SCALE_PER_SECOND:
        cmd += ["--scale", str(SCALE_PER_SECOND[args.workload] * args.seconds)]
    _check(cmd, child_env(hash_seed))
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def accounting(result: Dict[str, Any], workload: str) -> Tuple[int, int, int]:
    """(attempted, failures, failed operations). The service counts
    requests; the in-process workloads count tasks. A failure is also an
    unsolved outcome; a failed operation is not (NOTES.md)."""
    if workload == "tdd_service":
        ops = result["requests"]
        return len(ops), sum(r["failed"] for r in ops), sum(r["op_failed"] for r in ops)
    ops = result["tasks"]
    return len(ops), sum(t["failure"] for t in ops), sum(t["failed_op"] for t in ops)


def end_to_end(result: Dict[str, Any], setup: List[float], workload: str) -> Dict[str, float]:
    from workloads import percentile

    tasks, requests = result["tasks"], result["requests"]
    task_s = [t["seconds"] for t in tasks]
    req_s = [r["seconds"] for r in requests]
    attempted, failures, _ = accounting(result, workload)
    return {
        "setup_s": statistics.median(setup) if setup else float("nan"),
        "wall_s": result["wall_s"],
        "task_s_p50": percentile(task_s, 50),
        "task_s_p75": percentile(task_s, 75),
        "req_s_p50": percentile(req_s, 50),
        "req_s_p95": percentile(req_s, 95),
        "req_per_s": len(requests) / result["wall_s"],
        "solved": float(sum(t["solved"] for t in tasks)),
        "holdout_ok": float(sum(t["holdout_ok"] for t in tasks)),
        "fail_share": failures / attempted,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def digest(result: Dict[str, Any]) -> List[tuple]:
    """What must not depend on the hash seed or on tracing."""
    return [
        (t["name"], t["solved"], t["holdout_ok"], t["expressions"], t["programs"],
         json.dumps(t["programs_text"], sort_keys=True))
        for t in result["tasks"]
    ]


# -- reporting -------------------------------------------------------------


def print_rows(result: Dict[str, Any], workload: str) -> None:
    from workloads import percentile

    print(f"tasks ({len(result['tasks'])}):")
    print(f"  {'task':34s} {'group':16s} {'result':10s} {'seconds':>9s} {'reqs':>5s} "
          f"{'exprs':>9s} {'progs':>7s}")
    for t in result["tasks"]:
        if t["error"] or t["wrong"]:
            status = "WRONG" if t["wrong"] else "ERROR"
        elif t["safety_net"]:
            status = "SAFETY-NET"
        elif t["solved"]:
            status = "ok" if t["holdout_ok"] else "OVERFIT"
        else:
            status = "unsolved"
        print(f"  {t['name']:34s} {t['group']:16s} {status:10s} {t['seconds']:9.4f} "
              f"{t['requests']:5d} {t['expressions']:9d} {t['programs']:7d}")
        if t["error"]:
            print(f"    failed operation: {t['error']}")
    kinds: Dict[str, List[Dict[str, Any]]] = {}
    for r in result["requests"]:
        key = r["kind"]
        if workload == "tdd_service" and r["cache_hit"] is not None:
            key += " hit" if r["cache_hit"] else " miss"
        kinds.setdefault(key, []).append(r)
    print("requests by kind:")
    print(f"  {'kind':16s} {'n':>5s} {'failed':>6s} {'p50_s':>9s} {'p95_s':>9s} {'max_s':>9s}")
    for key in sorted(kinds):
        secs = [r["seconds"] for r in kinds[key]]
        print(f"  {key:16s} {len(secs):5d} {sum(r['failed'] for r in kinds[key]):6d} "
              f"{percentile(secs, 50):9.4f} {percentile(secs, 95):9.4f} {max(secs):9.4f}")


def provenance(args) -> Dict[str, Any]:
    from workloads import budgets

    commit = "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        lines = proc.stdout.split()
        # An enclosing repository's HEAD would name the wrong commit.
        if proc.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "host.cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "budgets": budgets(),
        "git_commit": commit,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH_DIR]
    workdir = os.path.join(ROOT, ".bench_build", "repobench", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    defects: List[str] = []
    try:
        # The traced run reports no setup_s, so it skips the set-ups.
        setup = [] if args.trace else setup_times(args.workload, workdir)
        passes = [(False, "1" if args.trace else None, "untraced")]
        if args.trace:
            passes.append((True, "2", "traced"))
        # The in-process passes share nothing, so a traced run makes them
        # side by side on the 2 CPUs, which halves its time. The service
        # pair runs one after the other: its cache evicts by wall-clock
        # cost, which contention would change.
        workers = 2 if args.trace and args.workload != "tdd_service" else 1
        with concurrent.futures.ThreadPoolExecutor(workers) as pool:
            results = list(pool.map(lambda p: run_pass(args, workdir, *p), passes))
        base, traced = results[0], results[-1]
        if args.trace:
            a, b = digest(base), digest(traced)
            for row_a, row_b in zip(a, b):
                if row_a != row_b:
                    defects.append(
                        f"DEFECT nondeterminism: {row_a[0]} differs between "
                        f"PYTHONHASHSEED=1 untraced and PYTHONHASHSEED=2 traced: "
                        f"{row_a[1:]} vs {row_b[1:]}"
                    )
            if len(a) != len(b):
                defects.append("DEFECT nondeterminism: task lists differ in length")
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"== repobench {args.workload} seed={args.seed} trace={args.trace}")
    print("provenance: " + json.dumps(provenance(args), sort_keys=True))
    print_rows(base, args.workload)
    tasks = base["tasks"]
    for t in tasks:
        if t["wrong"]:
            why = t["error"] or "solved program fails its holdouts"
            defects.append(f"WRONG {t['name']}: {why}")
        if t["safety_net"]:
            print(f"SAFETY-NET fired (counted as a failed operation): {t['name']}")
        if t["solved"] and not t["holdout_ok"] and not t["wrong"]:
            print(f"OVERFIT (counted in fail_share): {t['name']} meets its examples "
                  "but not the puzzle reference on its holdout inputs")
    for line in defects:
        print(line)
    e2e = end_to_end(base, setup, args.workload)
    if setup:
        print(f"setup trials (s): {[round(s, 4) for s in setup]}")
    print(f"samples: {len(tasks)} tasks, {len(base['requests'])} requests")
    for name, value in e2e.items():
        print(f"  {name:14s} {value:14.6f} {END_TO_END[name]}")

    attempted, _, failed = accounting(base, args.workload)
    if args.trace:
        layers = traced["layers"]
        values = dict(layers["values"])
        values["trace.overhead_share"] = traced["wall_s"] / base["wall_s"] - 1.0
        print("per layer (traced pass; trace.overhead_share = traced/untraced wall - 1):")
        for name in sorted(values):
            print(f"  {name:26s} {values[name]:16.6f}")
        for name, why in sorted(layers["missing"].items()):
            print(f"  {name:26s} unavailable: {why}")
        metrics = {
            name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in layer_units().items()
        }
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    correct = not defects
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def layer_units() -> Dict[str, str]:
    from workloads import SERVICE_LAYER_METRICS, SYNTHESIS_LAYER_METRICS

    units = {}
    for name in SYNTHESIS_LAYER_METRICS + SERVICE_LAYER_METRICS + ["trace.overhead_share"]:
        if name.endswith("_per_s"):
            units[name] = "1/s"
        elif name.endswith(("_s", "_p50", "_p95")):
            units[name] = "s"
        elif name.endswith(("_ratio", "_share")):
            units[name] = "share"
        else:
            units[name] = "count"
    return units


if __name__ == "__main__":
    sys.exit(main())
