"""One benchmark workload, run as a closed-loop client in its own process.

    python3 bench/workloads.py --workload NAME --seed N --seconds S --trace 0|1
                               [--smoke] [--setup-only]

`bench/run.py` starts this process; run that instead.  The client builds
its inputs from the seed (setup), then repeats whole units of work, one
command at a time, and prints one JSON line with the unit wall times, the
output checks and, with --trace 1, the per-layer metrics.  --setup-only
stops after setup and prints "ready"; run.py times that from the outside.

Workloads (see bench/README.md for why each was chosen):
  verify-suite    `phasespace verify` through cli.main on --demo fock1 and
                  on a seeded random_mixture passed with --state FILE.
  bound-sweep     c07-style BoundContext sweep (cold window tables, then
                  adopted for one seeded mixture), c12 kernel envelope,
                  and operator_seminorm calls, through the library.
  pointwise-demo  `phasespace demo --which all` through cli.main.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import spans
from spans import CHECK_NAMES as FULL_PLAN

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

# FULL_PLAN is the 11-check plan run_suite uses for an analytic state that
# fits the default box; a state that does not gets its first five checks.
WIDE_PLAN = FULL_PLAN[:5]
CSV_HEADER = "name,residual,tolerance,samples,passed,N,L,seed"
ENVELOPE_TOL = 1e-9
OPERATOR_TOL = 1e-6


def import_program():
    """Import phasespace from this checkout's src/, never from elsewhere."""
    src = (ROOT / "src").resolve()
    if not (src / "phasespace" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no phasespace sources under {src}")
    sys.path.insert(0, str(src))
    import phasespace

    if src not in Path(phasespace.__file__).resolve().parents:
        raise SystemExit(f"benchmark: phasespace imported from {phasespace.__file__}")
    import phasespace.cli  # noqa: F401  (part of what a user's run imports)

    return phasespace


class Tally:
    """Operations attempted and failed; each failure keeps a reason."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def op(self, name, ok, reason=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {reason}")

    def fail(self, name, reason):
        """An output check outside the per-operation ones that failed."""
        self.op(name, False, reason)


def _cli(ps, argv):
    """cli.main with its stdout captured; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ps.cli.main(argv)
    return code, buf.getvalue()


class Workload:
    """Inputs built from the seed in __init__; `unit` runs one unit of work."""

    min_units = 1

    def unit(self, tally, k):
        raise NotImplementedError

    def determinism(self, tally):
        """Digests of repeated outputs; a mismatch is a failed operation."""
        return {}


# ---------------------------------------------------------------------------
# verify-suite


class VerifySuite(Workload):
    min_units = 2  # each (state, seed) CSV is produced twice per run

    def __init__(self, ps, seed, smoke, threads):
        self.ps = ps
        self.seed = seed
        self.runs = []
        cfg = WORK / f"verify-seed{seed}.cfg"
        lines = [f"threads = {threads}", f"seed = {seed}"]
        if smoke:
            # a coherent state outside the default box: the five-check plan
            # on a coarse lattice, seconds instead of a minute
            far = ps.PureState([ps.Atom((0,), (7.0, 0.0), 1.0)])
            path = WORK / f"far-seed{seed}.json"
            ps.save_state(far, str(path))
            self.runs.append(("far-coherent", ["--state", str(path)], WIDE_PLAN))
            lines.append("grid.N = 64")
        else:
            mixture = ps.random_mixture(np.random.default_rng(seed))
            path = WORK / f"mixture-seed{seed}.json"
            ps.save_state(mixture, str(path))
            self.runs.append(("fock1", ["--demo", "fock1"], FULL_PLAN))
            self.runs.append(("mixture", ["--state", str(path)], FULL_PLAN))
        cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.cfg = cfg
        self.digests = {}

    def unit(self, tally, k):
        for label, state_args, plan in self.runs:
            out = WORK / f"verify-{label}-seed{self.seed}.csv"
            if out.exists():
                out.unlink()
            argv = ["verify", *state_args, "--config", str(self.cfg), "--out", str(out)]
            code, _ = _cli(self.ps, argv)
            self._check_csv(label, plan, code, out, tally)

    def _check_csv(self, label, plan, code, out, tally):
        if not out.is_file():
            for name in plan:
                tally.op(f"{label}/{name}", False, f"no CSV written (exit {code})")
            return
        data = out.read_bytes()
        self.digests.setdefault(label, []).append(hashlib.sha256(data).hexdigest())
        lines = data.decode("utf-8").splitlines()
        if not lines or lines[0] != CSV_HEADER:
            tally.fail(f"{label}/csv", "unexpected CSV header")
        rows = {}
        for line in lines[1:]:
            cells = line.split(",")
            rows[cells[0]] = cells
        all_pass = True
        for name in plan:
            cells = rows.get(name)
            if cells is None or len(cells) != 8:
                tally.op(f"{label}/{name}", False, "row missing from CSV")
                all_pass = False
                continue
            resid, tol, passed = float(cells[1]), float(cells[2]), cells[4]
            ok = passed == "1" and math.isfinite(resid) and resid <= tol
            all_pass &= ok
            reason = (
                "raised (reason in the traced run)" if not math.isfinite(resid)
                else f"residual {resid:.3g} > tolerance {tol:.3g}, passed={passed}"
            )
            tally.op(f"{label}/{name}", ok, reason)
        if set(rows) - set(plan):
            tally.fail(f"{label}/csv", f"unexpected checks {sorted(set(rows) - set(plan))}")
        if code != (0 if all_pass else 1):
            tally.fail(f"{label}/exit", f"exit code {code} with all_pass={all_pass}")

    def determinism(self, tally):
        """sha256 of each verify CSV per (state, seed); repetitions must agree."""
        for label, digests in self.digests.items():
            if len(set(digests)) > 1:
                tally.fail(f"{label}/determinism", f"CSV digests differ: {digests}")
        return {
            label: {str(self.seed): digests} for label, digests in self.digests.items()
        }


# ---------------------------------------------------------------------------
# bound-sweep


class BoundSweep(Workload):
    # unit k sweeps mixture k % 2 after the cold base context, so a run
    # covers both seeded mixtures
    min_units = 2

    def __init__(self, ps, seed, smoke, threads):
        self.ps = ps
        rng = np.random.default_rng(seed)
        self.mixtures = [ps.random_mixture(rng) for _ in range(2)]
        self.chi = ps.vacuum_state(1)
        if smoke:
            self.grid = ps.Grid(2, 64, 12.0)
            self.order_cap = 1
            self.envelope_idx = [(0,), (1,)]
            self.op_grid = ps.Grid(1, 128, 12.0, kind="config")
        else:
            self.grid = ps.Grid(2, 256, 12.0)
            self.order_cap = 4
            self.envelope_idx = [(0,), (1,), (2,)]
            self.op_grid = None
        # (a, b, c, d) of X^a P^b rho P^c X^d, each with its rank-one
        # triangle envelope sum_j w_j |x^a d^b psi_j| |x^d d^c psi_j|,
        # computed here so the timed units call only what they measure
        indices = [((0,), (0,), (0,), (0,)), ((1,), (1,), (0,), (0,))]
        self.operators = [
            [(a, b, c, d, sum(
                w * psi.weighted_derivative(a, b).norm()
                * psi.weighted_derivative(d, c).norm()
                for w, psi in zip(rho.weights, rho.pure_states)))
             for a, b, c, d in indices]
            for rho in self.mixtures
        ]

    def _sweep(self, ctx, label, tally):
        for a, b in ctx.index_pairs():
            for rep in (ctx.theorem_report(a, b), ctx.husimi_report(a, b)):
                ok = (
                    math.isfinite(rep.lhs) and math.isfinite(rep.rhs) and rep.rhs > 0
                    and rep.lhs <= rep.rhs * (1.0 + rep.tol)
                )
                tally.op(f"{label}/{rep.name}{a}{b}", ok,
                         f"lhs {rep.lhs:.6g} > rhs {rep.rhs:.6g}")

    def _envelope(self, rho, label, tally):
        ps = self.ps
        idx = self.envelope_idx
        comps = ps.scaled_components(rho)
        joint = {(a, b): ps.joint_seminorm(comps, a, b) for a in idx for b in idx}
        for a in idx:
            for b in idx:
                for c in idx:
                    for d in idx:
                        lhs = ps.kernel_seminorm(rho, a, b, c, d)
                        rhs = joint[(a, b)] * joint[(c, d)]
                        ratio = lhs / rhs if rhs > 0 else math.inf
                        tally.op(f"{label}/envelope{a}{b}{c}{d}",
                                 math.isfinite(ratio) and ratio <= 1.0 + ENVELOPE_TOL,
                                 f"ratio {ratio:.12g}")

    def _operators(self, rho, operators, label, tally):
        for a, b, c, d, envelope in operators:
            name = f"{label}/operator{a}{b}{c}{d}"
            try:
                value = self.ps.operator_seminorm(rho, a, b, c, d, grid=self.op_grid)
            except Exception as exc:  # a raising call is a failed operation
                tally.op(name, False, f"{type(exc).__name__}: {exc}")
                continue
            ok = math.isfinite(value) and 0 < value <= envelope * (1 + OPERATOR_TOL)
            reason = f"value {value:.12g} vs envelope {envelope:.12g}"
            if ok and not any(a + b + c + d):
                # orthonormal components: the operator norm is the largest weight
                top = max(rho.weights)
                ok = abs(value - top) <= OPERATOR_TOL * top
                reason = f"norm {value:.12g} != largest weight {top:.12g}"
            tally.op(name, ok, reason)

    def unit(self, tally, k):
        ps = self.ps
        kw = {"chi": self.chi, "grid": self.grid, "max_total_order": self.order_cap}
        base = ps.BoundContext(ps.vacuum_state(1), **kw)
        self._sweep(base, "vacuum", tally)
        k %= len(self.mixtures)
        rho, label = self.mixtures[k], f"mixture{k}"
        ctx = ps.BoundContext(rho, **kw).adopt_chi_tables(base)
        self._sweep(ctx, label, tally)
        self._envelope(rho, label, tally)
        self._operators(rho, self.operators[k], label, tally)


# ---------------------------------------------------------------------------
# pointwise-demo


class PointwiseDemo(Workload):
    def __init__(self, ps, seed, smoke, threads):
        # `phasespace demo` takes no input: the plateau and heavy-tail states
        # are built in, so the seed selects nothing here
        self.ps = ps
        self.argv = ["demo", "--which", "heavy-tail", "--K", "2"] if smoke else [
            "demo", "--which", "all"]
        self.k_max = 2 if smoke else 6
        self.plateau = not smoke

    def unit(self, tally, k):
        code, text = _cli(self.ps, self.argv)
        all_pass = True
        if self.plateau:
            found = re.search(r"p\^-([0-9.]+)", text)
            exponent = float(found.group(1)) if found else math.nan
            ok = 0.5 <= exponent <= 2.0
            tally.op("plateau-decay", ok, f"exponent {exponent} outside [0.5, 2]")
            all_pass &= ok
        values = [float(v) for _, v in re.findall(r"K=(\d+): ([-+0-9.eE]+)", text)]
        ok = len(values) == self.k_max and all(
            hi > lo for lo, hi in zip(values, values[1:]))
        tally.op("heavy-tail-trend", ok, f"K=1..{self.k_max} values {values}")
        all_pass &= ok
        if code != (0 if all_pass else 1):
            tally.fail("demo/exit", f"exit code {code} with all_pass={all_pass}")


WORKLOADS = {
    "verify-suite": VerifySuite,
    "bound-sweep": BoundSweep,
    "pointwise-demo": PointwiseDemo,
}


# ---------------------------------------------------------------------------
# environment record


def environment(threads):
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version",
                                                         "openblas configuration")}
    except Exception as exc:  # show_config layout differs across numpy builds
        blas = {"error": str(exc)}
    blas["threads"] = {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": len(affinity) if affinity else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "pool_workers": threads,
    }


def pool_threads():
    """Verify pool size: one worker per CPU this process may run on, at most 2."""
    n_cpu = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1)
    return max(1, min(2, n_cpu))


# ---------------------------------------------------------------------------
# timed phase and traced pass


def _run_unit(workload, tally, k):
    start = time.perf_counter()
    try:
        workload.unit(tally, k)
    except Exception as exc:  # a unit that raises is a failed operation
        tally.fail(f"unit{k}", f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - start


def timed_phase(workload, seconds, tally):
    """Repeat whole units while the next one is predicted to end in time."""
    walls = []
    start = time.perf_counter()
    while True:
        walls.append(_run_unit(workload, tally, len(walls)))
        elapsed = time.perf_counter() - start
        if len(walls) >= workload.min_units and elapsed + statistics.median(walls) > seconds:
            return walls


def traced_pass(workload, tally, spans_path):
    """Unit 0 untraced, then unit 0 again under the span recorder."""
    cpu0 = time.process_time()
    plain = _run_unit(workload, tally, 0)
    cpu_s = time.process_time() - cpu0
    recorder = spans.SpanRecorder()
    with recorder:
        traced = _run_unit(workload, tally, 0)
    left = spans.installed_wrappers()
    if left:
        tally.fail("trace/uninstall", f"wrappers left behind: {left[:3]}")
    recorder.write(spans_path)
    metrics, absent = spans.layer_metrics(recorder.spans)
    metrics["trace.overhead_frac"] = traced / plain - 1.0
    metrics["trace.cpu_s"] = cpu_s
    for check, reason in spans.suite_failures(recorder.spans):
        print(f"FAIL {check}: {reason}")
    return metrics, absent, {"untraced_s": plain, "traced_s": traced}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    ps = import_program()
    WORK.mkdir(exist_ok=True)
    threads = pool_threads()
    workload = WORKLOADS[args.workload](ps, args.seed, args.smoke, threads)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    tally = Tally()
    result = {"env": environment(threads)}
    if args.trace:
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        metrics, absent, walls = traced_pass(workload, tally, spans_path)
        result.update(per_layer=metrics, absent=absent, trace_walls=walls,
                      spans_file=str(spans_path.relative_to(ROOT)))
    else:
        walls = timed_phase(workload, args.seconds, tally)
        result.update(
            unit_walls=walls,
            wall_s=statistics.median(walls),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    result["determinism"] = workload.determinism(tally)
    for failure in tally.failures:
        print(f"FAIL {failure}")
    result.update(attempted=tally.attempted, failed=len(tally.failures))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
