"""Span recorder that times calls into phasespace from outside the package.

`SpanRecorder.install` wraps each public function listed in TARGETS at every
place it is bound: the defining module, each module that imported it by
name, and the `phasespace` namespace.  Methods in METHODS are wrapped on
their class.  `uninstall` puts every original back.  Nothing in `src/` is
edited, and timed runs never carry wrappers.

Each span records name, start, end, parent and thread.  Parents come from
a per-thread stack; a span opened on a thread with an empty stack (a
`run_suite` pool worker) takes the innermost open span of the installing
thread, so checks attach to the `run_suite` call that submitted them.
"""

import functools
import importlib
import itertools
import json
import math
import threading
import time

import numpy as np

# layer -> public functions wrapped in that module.  multiindex helpers are
# too small to wrap; their cost shows in the self time of their callers.
TARGETS = {
    "grid": ["spectral_derivative", "symplectic_fourier"],
    "states": [
        "displaced_overlaps",
        "displacement_matrix_element",
        "pure_overlap",
        "quasichar_values",
        "load_state",
    ],
    "transforms": [
        "wigner",
        "quasichar",
        "husimi",
        "matel",
        "wigner_pointwise",
        "offdiag_wigner",
        "twisted_convolution",
        "twisted_convolution_grid",
        "momentum_marginal",
        "momentum_density",
    ],
    "seminorms": [
        "seminorm",
        "norm_sum",
        "seminorm_table",
        "joint_seminorm",
        "kernel_seminorm",
        "operator_seminorm",
    ],
    "bounds": ["cauchy_schwarz_reports", "chi_seminorm_table", "offdiag_bound_rhs"],
    "verify": [
        "run_suite",
        "suggest_grid",
        "check_duality",
        "check_trace",
        "check_overlap",
        "check_husimi",
        "check_cauchy_schwarz",
        "check_offdiag",
        "check_reproducing",
        "check_wigner_from_matel",
        "check_wigner_decomp",
        "check_marginal",
        "check_marginal_pointwise",
        "check_twisted_expansion",
        "check_heavy_tail_trend",
        "check_plateau_decay",
        "heavy_tail_first_seminorms",
        "plateau_decay_exponent",
    ],
    "cli": ["main", "export_csv", "parse_config"],
}

CONTEXT_ACCESSORS = [
    "w_rho",
    "w_chi",
    "q_rho",
    "chi_table",
    "chi_decay_table",
    "rho_decay_table",
    "q_decay_table",
    "lhs_seminorm",
]

# (layer, class) -> methods wrapped on the class; span name uses `call`
# for `__call__`.
METHODS = {
    ("states", "MixedState"): ["kernel"],
    ("transforms", "MatelSampler"): ["__call__"],
    ("bounds", "BoundContext"): CONTEXT_ACCESSORS
    + ["theorem_report", "husimi_report", "adopt_chi_tables"],
}

# the checks run_suite plans for an analytic state inside the default box,
# in plan order
CHECK_NAMES = [
    "duality",
    "trace",
    "husimi",
    "cauchy-schwarz",
    "marginal",
    "overlap",
    "offdiag",
    "reproducing",
    "wigner-from-matel",
    "wigner-decomp",
    "twisted-expansion",
]

MODULES = ["grid", "states", "transforms", "seminorms", "bounds", "verify", "cli"]

RESIDUAL_FLOOR = 1e-18


def _state_key(state):
    """Structural identity of a state, for counting distinct inputs."""
    comps = getattr(state, "pure_states", None)
    weights = getattr(state, "weights", (1.0,))
    if comps is None:
        comps = (state,)
    parts = []
    for ps in comps:
        atoms = getattr(ps, "atoms", None)
        if atoms is None:
            parts.append(type(ps).__name__)
        else:
            parts.append(tuple((a.m, a.alpha, complex(a.coeff)) for a in atoms))
    return tuple(weights), tuple(parts)


def _kernel_points(args):
    x, y = args[1], args[2]
    shape = np.broadcast_shapes(np.shape(x)[:-1], np.shape(y)[:-1])
    return int(np.prod(shape, dtype=np.int64))


def _report_attrs(rep):
    return {
        "check": rep.name,
        "residual": float(rep.residual),
        "tolerance": float(rep.tolerance),
        "error": rep.info.get("error") if isinstance(rep.info, dict) else None,
    }


def _attrs(name, args, kwargs, result):
    """Extra per-span data, gathered after the span's end time is taken."""
    if name == "transforms.wigner":
        grid = args[1] if len(args) > 1 else kwargs["grid"]
        return {"key": (_state_key(args[0]), grid)}
    if name == "states.MixedState.kernel":
        return {"points": _kernel_points(args)}
    if name == "seminorms.seminorm_table":
        return {"entries": len(result)}
    if name.startswith("verify.check_") and hasattr(result, "residual"):
        return _report_attrs(result)
    if name == "verify.run_suite":
        return {"reports": [_report_attrs(rep) for rep in result]}
    return None


class SpanRecorder:
    """Collects spans in memory; `write` dumps them once the run is over."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._home_stack = None
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        home = self._home_stack
        if home is not None and home is not stack:
            try:
                return home[-1]
            except IndexError:
                return 0
        return 0

    def wrap(self, name, fn):
        recorder = self

        def traced(*args, **kwargs):
            stack = recorder._stack()
            parent = recorder._parent(stack)
            sid = next(recorder._ids)
            stack.append(sid)
            start = time.perf_counter()
            error = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                span = {
                    "id": sid,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "thread": threading.get_ident(),
                }
                if error is not None:
                    span["error"] = error
                recorder.spans.append(span)
            attrs = _attrs(name, args, kwargs, result)
            if attrs:
                span.update(attrs)
            return result

        traced = functools.wraps(fn)(traced)
        traced.span_name = name
        return traced

    def install(self):
        """Wrap every target at every binding site; remember the originals."""
        if self._patched:
            raise RuntimeError("recorder already installed")
        self._home_stack = self._stack()
        modules = _modules()
        for layer, names in TARGETS.items():
            home = importlib.import_module(f"phasespace.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        for (layer, cls_name), names in METHODS.items():
            cls = getattr(importlib.import_module(f"phasespace.{layer}"), cls_name)
            for meth in names:
                original = cls.__dict__[meth]
                label = "call" if meth == "__call__" else meth
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self.wrap(f"{layer}.{cls_name}.{label}", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []
        self._home_stack = None

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                rec = {k: v for k, v in span.items() if k != "key"}
                fh.write(json.dumps(rec, default=str) + "\n")


def _modules():
    """The `phasespace` namespace and every module that binds a target."""
    return [importlib.import_module("phasespace")] + [
        importlib.import_module(f"phasespace.{m}") for m in MODULES
    ]


def installed_wrappers():
    """(owner, attr) pairs that still hold a wrapper; empty after uninstall."""
    found = []
    owners = _modules()
    for layer, cls_name in METHODS:
        owners.append(getattr(importlib.import_module(f"phasespace.{layer}"), cls_name))
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if hasattr(value, "span_name"):
                found.append((owner, attr))
    return found


def _self_times(spans):
    """Span id -> duration minus the part of it that child spans cover."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        edge = span["start"]
        kids = sorted(children.get(span["id"], ()), key=lambda s: s["start"])
        for kid in kids:
            lo = max(kid["start"], edge)
            hi = min(kid["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[span["id"]] = span["end"] - span["start"] - covered
    return out, children


def margin_digits(residual, tolerance):
    """log10(tol / residual) with the residual floored, so 0 stays finite."""
    resid = min(max(residual, RESIDUAL_FLOOR), 1.0 / RESIDUAL_FLOOR)
    if not math.isfinite(residual):
        resid = 1.0 / RESIDUAL_FLOOR
    return math.log10(tolerance / resid) if tolerance > 0 else -math.log10(resid)


def layer_metrics(spans):
    """Per-layer metrics of one traced pass, plus notes on absent ones.

    Returns (metrics, absent): metrics maps every per-layer name (except the
    trace.* ones, which the caller measures) to a number; absent maps each
    metric that the pass did not exercise to the reason, and its value is 0.
    """
    self_s, children = _self_times(spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    metrics, absent = {}, {}

    def calls(name):
        return len(by_name.get(name, ()))

    def total_self(name):
        return sum(self_s[s["id"]] for s in by_name.get(name, ()))

    def inclusive(name):
        return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

    def put(metric, value, source):
        metrics[metric] = float(value)
        if not calls(source):
            absent[metric] = f"no call to {source} in this workload"

    checks = [s for n, group in by_name.items() if n.startswith("verify.check_")
              for s in group if s.get("check") in CHECK_NAMES]
    for check in CHECK_NAMES:
        mine = [s for s in checks if s["check"] == check]
        metrics[f"verify.check.{check}.s"] = sum(
            (s["end"] - s["start"] for s in mine), 0.0)
        metrics[f"verify.check.{check}.margin_digits"] = (
            min(margin_digits(s["residual"], s["tolerance"]) for s in mine)
            if mine else 0.0
        )
        if not mine:
            for suffix in ("s", "margin_digits"):
                absent[f"verify.check.{check}.{suffix}"] = (
                    f"check {check} not run in this workload"
                )
    metrics["verify.longest_check.s"] = max(
        (s["end"] - s["start"] for s in checks), default=0.0
    )
    if not checks:
        absent["verify.longest_check.s"] = "no verify check in this workload"

    for name in ("wigner", "quasichar", "husimi", "matel", "twisted_convolution",
                 "wigner_pointwise"):
        put(f"transforms.{name}.calls", calls(f"transforms.{name}"), f"transforms.{name}")
        put(f"transforms.{name}.self_s", total_self(f"transforms.{name}"),
            f"transforms.{name}")
    keys = {s["key"] for s in by_name.get("transforms.wigner", ())}
    n_wigner = calls("transforms.wigner")
    put("transforms.wigner.distinct_frac", len(keys) / n_wigner if n_wigner else 0.0,
        "transforms.wigner")
    put("transforms.MatelSampler.call.calls", calls("transforms.MatelSampler.call"),
        "transforms.MatelSampler.call")

    kernel = "states.MixedState.kernel"
    put(f"{kernel}.calls", calls(kernel), kernel)
    put(f"{kernel}.self_s", total_self(kernel), kernel)
    put(f"{kernel}.points", sum(s.get("points", 0) for s in by_name.get(kernel, ())),
        kernel)
    put("states.displaced_overlaps.calls", calls("states.displaced_overlaps"),
        "states.displaced_overlaps")
    put("states.displaced_overlaps.self_s", total_self("states.displaced_overlaps"),
        "states.displaced_overlaps")
    put("states.displacement_matrix_element.calls",
        calls("states.displacement_matrix_element"),
        "states.displacement_matrix_element")

    for name in ("spectral_derivative", "symplectic_fourier"):
        put(f"grid.{name}.calls", calls(f"grid.{name}"), f"grid.{name}")
        put(f"grid.{name}.self_s", total_self(f"grid.{name}"), f"grid.{name}")

    table = "seminorms.seminorm_table"
    entries = sum(s.get("entries", 0) for s in by_name.get(table, ()))
    put(f"{table}.calls", calls(table), table)
    put(f"{table}.self_s", total_self(table), table)
    put(f"{table}.entries", entries, table)
    put(f"{table}.s_per_entry", inclusive(table) / entries if entries else 0.0, table)
    for name in ("seminorm", "kernel_seminorm", "joint_seminorm", "operator_seminorm"):
        put(f"seminorms.{name}.calls", calls(f"seminorms.{name}"), f"seminorms.{name}")
        put(f"seminorms.{name}.self_s", total_self(f"seminorms.{name}"),
            f"seminorms.{name}")

    for name in ("theorem_report", "husimi_report"):
        source = f"bounds.BoundContext.{name}"
        put(f"bounds.{name}.calls", calls(source), source)
        put(f"bounds.{name}.self_s", total_self(source), source)
    # a window-table accessor that had to build shows child spans (wigner,
    # seminorm_table); a cache hit shows none
    builds = [s for name in ("chi_table", "chi_decay_table")
              for s in by_name.get(f"bounds.BoundContext.{name}", ())
              if children.get(s["id"])]
    put("bounds.chi_tables_s", sum(s["end"] - s["start"] for s in builds),
        "bounds.BoundContext.chi_table")
    accessors = [s for name in CONTEXT_ACCESSORS
                 for s in by_name.get(f"bounds.BoundContext.{name}", ())]
    hits = sum(1 for s in accessors if not children.get(s["id"]))
    metrics["bounds.context.hit_frac"] = hits / len(accessors) if accessors else 0.0
    if not accessors:
        absent["bounds.context.hit_frac"] = "no BoundContext accessor call"

    put("cli.export_csv.self_s", total_self("cli.export_csv"), "cli.export_csv")
    return metrics, absent


def suite_failures(spans):
    """(check, reason) for each failed report that a traced run_suite returned."""
    out = []
    for span in spans:
        if span["name"] != "verify.run_suite":
            continue
        for rep in span.get("reports", ()):
            if rep["residual"] <= rep["tolerance"]:
                continue
            reason = rep["error"] or (
                f"residual {rep['residual']:.3g} > tolerance {rep['tolerance']:.3g}"
            )
            out.append((rep["check"], reason))
    return out
