"""phasespace benchmark: three user runs timed end to end, layers traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # every workload in turn
    python3 bench/run.py --smoke                   # seconds-long plumbing check

Run from anywhere inside a checkout; the program is imported from the
checkout's src/.  Each workload runs as one closed-loop client in its own
process (bench/workloads.py).  The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (setup_s, wall_s, peak_rss_mb);
--trace 1 reports the per-layer metrics of one traced unit.  The metric
list, units and bounds live in BENCHMARK.json; bench/README.md says what
each workload exercises and which end-to-end metric each layer moves.
A full record of the run (environment, CSV digests, unit times) is written
to .bench_work/BENCH_<workload>_seed<N>_trace<T>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
CLIENT = BENCH / "workloads.py"
WORKLOADS = ["verify-suite", "bound-sweep", "pointwise-demo"]
SETUP_REPEATS = 4  # before the client and again after it
CLIENT_TIMEOUT_S = 150.0

# One BLAS thread per process: the verify pool already runs one worker per
# CPU, and a second BLAS thread per worker oversubscribes the cores.  Fixed
# here so both commits of a comparison see the same setting.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _git_commit():
    """HEAD commit read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _client_cmd(workload, seed, seconds, trace, smoke, setup_only=False):
    cmd = [sys.executable, str(CLIENT), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    return cmd


def _env():
    env = dict(os.environ)
    env.update(BLAS_ENV)
    return env


def setup_samples(workload, seed, smoke):
    """Times from process start until a fresh client's inputs are ready."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            _client_cmd(workload, seed, 0, 0, smoke, setup_only=True),
            stdout=subprocess.PIPE, env=_env(), cwd=ROOT, text=True,
        )
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=CLIENT_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup of {workload} failed (exit {code})")
        samples.append(ready)
    return samples


def run_client(workload, seed, seconds, trace, smoke):
    """Run one client process; returns (its JSON record, its other lines)."""
    proc = subprocess.run(
        _client_cmd(workload, seed, seconds, trace, smoke),
        stdout=subprocess.PIPE, env=_env(), cwd=ROOT, text=True,
        timeout=CLIENT_TIMEOUT_S,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} client exited {proc.returncode}")
    return json.loads(lines[-1]), lines[:-1]


def run_workload(spec, workload, seed, seconds, trace, smoke):
    """Run one workload; print its lines and return the result object."""
    # setup is timed before and after the client, so that its median spans
    # more than one stretch of the machine's background load
    setup = [] if trace else setup_samples(workload, seed, smoke)
    record, notes = run_client(workload, seed, seconds, trace, smoke)
    for line in notes:
        print(line)
    if trace:
        wanted = spec["per_layer"]
        values = record["per_layer"]
        for name, reason in sorted(record["absent"].items()):
            print(f"absent {name}: {reason} (reported as 0)")
    else:
        wanted = spec["end_to_end"]
        setup += setup_samples(workload, seed, smoke)
        record["setup_samples"] = setup
        values = {"setup_s": statistics.median(setup), "wall_s": record["wall_s"],
                  "peak_rss_mb": record["peak_rss_mb"]}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"{workload}: no value for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, entry in metrics.items():
        print(f"metric {workload} {name} = {entry['value']:.6g} {entry['unit']}")
    record["env"]["git_commit"] = _git_commit()
    print("env " + json.dumps(record["env"], sort_keys=True))
    print("determinism " + json.dumps(record["determinism"], sort_keys=True))
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    record.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
                  smoke=smoke, result=result)
    out = WORK / f"BENCH_{workload}_seed{seed}_trace{trace}{'_smoke' if smoke else ''}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(f"record {out.relative_to(ROOT)}")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs on every workload, traced and untraced")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "phasespace" / "__init__.py").is_file():
        print(f"benchmark: no phasespace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    WORK.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    traces = (0, 1) if args.smoke else (args.trace,)
    if args.smoke:
        seconds = 0.0
    try:
        results = [run_workload(spec, name, args.seed, seconds, trace, args.smoke)
                   for name in names for trace in traces]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[0]))
        return 0
    merged = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{name}.trace{trace}.{metric}": entry
                    for (name, trace), r in zip(
                        [(n, t) for n in names for t in traces], results)
                    for metric, entry in r["metrics"].items()},
    }
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
