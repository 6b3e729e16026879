"""Command-line front end.

Exit codes: 0 success, 1 a check, bound or grid cross-check failed, 2 usage,
config, or state-file errors.  All numeric output is printed with 17
significant digits so identical inputs produce byte-identical files.
"""

import argparse
import ctypes
import platform
import sys

import numpy as np

from .bounds import BoundContext
from .grid import (
    DEFAULT_BAND,
    DERIVATIVE_ORDER_CAP,
    Grid,
    GridResolutionError,
    PhaseSpaceFn,
    suggest_grid,
)
from .multiindex import as_index
from .seminorms import SeminormReport, seminorm
from .states import HEAVY_TAIL_MAX_K, as_mixed, demo_state, load_state
from .transforms import husimi, matel, quasichar, wigner
from .verify import (
    CSV_HEADER,
    DEFAULT_TOLERANCES,
    PLATEAU_P_HI,
    PLATEAU_P_LO,
    RunConfig,
    check_heavy_tail_trend,
    check_plateau_decay,
    run_suite,
    worker_count,
)

DEMO_NAMES = ("vacuum", "fock1", "plateau", "heavy-tail")

BOUND_HEADER = "a,b,lhs,rhs,ratio,pass"
SEMINORM_HEADER = "family,a,b,value,N,L,band"
# a --state file is a density operator, and the check tolerances are absolute
_TRACE_TOL = 1e-6
# glibc mallopt parameters and the values every subcommand pins them at
# (see `_keep_freed_memory`)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8
_MMAP_THRESHOLD_BYTES = 32 * 2**20
_TRIM_THRESHOLD_BYTES = 64 * 2**20


def _config_value(key, value, where):
    def number(kind):
        try:
            return kind(value)
        except ValueError:
            raise ValueError(f"{where}: bad value for {key!r}: {value!r}") from None

    if key == "grid.N":
        n_pts = number(int)
        if not (8 <= n_pts <= 65536):
            raise ValueError(f"{where}: grid.N out of range [8, 65536]: {n_pts}")
        if n_pts & (n_pts - 1):
            raise ValueError(f"{where}: grid.N must be a power of two: {n_pts}")
        return "grid_n", n_pts
    if key == "grid.L":
        half = number(float)
        if not (0.0 < half <= 1e4):
            raise ValueError(f"{where}: grid.L out of range (0, 1e4]: {half}")
        return "grid_l", half
    if key == "seed":
        seed = number(int)
        if seed < 0:
            raise ValueError(f"{where}: seed must be >= 0: {seed}")
        return "seed", seed
    if key == "band":
        band = number(float)
        if not (0.0 <= band < 0.5):
            raise ValueError(f"{where}: band out of range [0, 0.5): {band}")
        return "band", band
    if key == "threads":
        n_workers = number(int)
        if n_workers < 0:
            raise ValueError(f"{where}: threads must be >= 0: {n_workers}")
        return "threads", n_workers
    if key == "out":
        return "out", str(value)
    if key.startswith("tol."):
        name = key[4:]
        if name not in DEFAULT_TOLERANCES:
            raise ValueError(f"{where}: unknown check in config key {key!r}")
        tol = number(float)
        # nan would fail its check on every run, inf would never fail it
        if not np.isfinite(tol):
            raise ValueError(f"{where}: tolerance must be finite: {tol}")
        if tol <= 0:
            raise ValueError(f"{where}: tolerance must be positive: {tol}")
        return ("tol", name), tol
    raise ValueError(f"{where}: unknown config key {key!r}")


def parse_config(path):
    """`key = value` lines; '#' comments; unknown keys are rejected."""
    cfg = RunConfig()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            slot, parsed = _config_value(key, value, f"{path}:{lineno}")
            if isinstance(slot, tuple):
                cfg.tolerances[slot[1]] = parsed
            else:
                setattr(cfg, slot, parsed)
    return cfg


# ---------------------------------------------------------------------------
# CSV export


def _fmt(value):
    return f"{value:.17g}"


def _fn_rows(fn):
    coords = fn.grid.points().reshape(-1, fn.grid.dim)
    values = fn.values.reshape(-1)
    complex_vals = np.iscomplexobj(values)
    if fn.grid.dim == 2:
        head = ["x", "p"]
    else:
        head = [f"c{k}" for k in range(fn.grid.dim)]
    head += ["re", "im"] if complex_vals else ["value"]
    yield ",".join(head)
    for pt, val in zip(coords, values):
        cells = [_fmt(c) for c in pt]
        if complex_vals:
            cells += [_fmt(val.real), _fmt(val.imag)]
        else:
            cells.append(_fmt(val))
        yield ",".join(cells)


def export_csv(obj, path, header=None):
    """Write a grid function or a report list; values keep full precision."""
    if isinstance(obj, PhaseSpaceFn):
        lines = _fn_rows(obj)
    else:
        lines = [CSV_HEADER if header is None else header] + [r.row() for r in obj]
    _write_lines(lines, path)


def _write_lines(lines, path):
    """Write each line with a trailing newline; an OS error names the path."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for line in lines:
                fh.write(line + "\n")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}")


# ---------------------------------------------------------------------------
# shared argument plumbing


def _add_state_flags(parser, with_chi=False):
    parser.add_argument(
        "--demo", choices=DEMO_NAMES, help="built-in state (no file needed)"
    )
    parser.add_argument("--state", help="state JSON file")
    parser.add_argument(
        "--K", type=int, default=None, help="heavy-tail truncation (demo only)"
    )
    parser.add_argument("--out", default=None, help="CSV output path")
    if with_chi:
        parser.add_argument(
            "--chi",
            default="vacuum",
            help="reference wavepacket: vacuum, fock1, or a state JSON file",
        )


def _add_grid_flag(parser):
    parser.add_argument(
        "--grid", default=None, help="N,L lattice: points per axis, half extent"
    )


def _resolve_state(args):
    if (args.demo is None) == (args.state is None):
        raise ValueError("exactly one of --demo or --state is required")
    if args.K is not None and args.demo != "heavy-tail":
        raise ValueError("--K applies only to --demo heavy-tail")
    if args.demo is not None:
        return demo_state(args.demo, K=args.K), args.demo.replace("-", "_")
    state = load_state(args.state)
    if not abs(state.trace() - 1.0) <= _TRACE_TOL:
        raise ValueError(f"{args.state}: trace {_fmt(state.trace())} differs from 1"
                         f" by more than {_TRACE_TOL:g}; normalize the weights")
    return state, None


def _resolve_chi(args):
    name = getattr(args, "chi", "vacuum")
    if name in ("vacuum", "fock1"):
        return demo_state(name).normalized()
    components = load_state(name).pure_states
    if len(components) != 1:
        raise ValueError(
            f"--chi {name}: a reference wavepacket needs exactly one pure state,"
            f" the file has {len(components)} components"
        )
    return components[0].normalized()


def _parse_grid(text):
    """(N, L) from --grid, range-checked as the config keys grid.N, grid.L."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"--grid expects N,L, got {text!r}")
    _, n_pts = _config_value("grid.N", parts[0], "--grid")
    _, half = _config_value("grid.L", parts[1], "--grid")
    return n_pts, half


def _resolve_grid(args, state):
    if args.grid is None:
        return suggest_grid(state)
    return Grid(2 * as_mixed(state).n, *_parse_grid(args.grid))


def _representation(which, state, grid, args):
    if which == "wigner":
        return wigner(state, grid)
    if which == "quasichar":
        return quasichar(state, grid)
    return husimi(state, _resolve_chi(args), grid)


def _parse_point(text, flag):
    try:
        x, p = text.split(",")
        point = np.array([float(x), float(p)])
    except ValueError:
        raise ValueError(f"{flag} expects x,p, got {text!r}") from None
    if not np.isfinite(point).all():
        raise ValueError(f"{flag} coordinates must be finite, got {text!r}")
    return point


def _parse_index(text, flag, dim):
    try:
        index = as_index(tuple(int(part) for part in text.split(",")))
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}")
    if len(index) != dim:
        raise ValueError(
            f"{flag} {text!r}: index length {len(index)} != grid dim {dim}"
        )
    return index


def _parse_band(text, grid):
    """The --band fraction, checked against the grid's interior slice."""
    try:
        band = float(text)
        grid.interior_range(band)
    except ValueError as exc:
        raise ValueError(f"--band {text!r}: {exc}") from None
    return band


# ---------------------------------------------------------------------------
# subcommands


def _cmd_transform(args, which):
    state, _ = _resolve_state(args)
    grid = _resolve_grid(args, state)
    fn = _representation(which, state, grid, args)
    quad = grid.quadrature(fn.values)
    print(
        f"{which}: N={grid.n_points} L={_fmt(grid.half_extent)} "
        f"quadrature={_fmt(quad.real if np.iscomplexobj(quad) else quad)}"
    )
    if args.out:
        export_csv(fn, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_matel(args):
    state, _ = _resolve_state(args)
    chi = _resolve_chi(args)
    alpha = _parse_point(args.alpha, "--alpha")
    beta = _parse_point(args.beta, "--beta")
    value = complex(matel(state, chi, alpha, beta))
    print(f"matel = {_fmt(value.real)} {'+' if value.imag >= 0 else '-'} "
          f"{_fmt(abs(value.imag))}j")
    if args.out:
        line = ",".join(
            [_fmt(alpha[0]), _fmt(alpha[1]), _fmt(beta[0]), _fmt(beta[1]),
             _fmt(value.real), _fmt(value.imag)]
        )
        _write_lines(["alpha_x,alpha_p,beta_x,beta_p,re,im", line], args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_seminorm(args):
    state, _ = _resolve_state(args)
    grid = _resolve_grid(args, state)
    a = _parse_index(args.a, "--a", grid.dim)
    b = _parse_index(args.b, "--b", grid.dim)
    if sum(b) > DERIVATIVE_ORDER_CAP:
        raise ValueError(f"--b {args.b!r}: derivative order {sum(b)} exceeds cap "
                         f"{DERIVATIVE_ORDER_CAP}")
    band = _parse_band(args.band, grid)
    fn = _representation(args.rep, state, grid, args)
    value = seminorm(fn, a, b, band=band)
    report = SeminormReport(
        args.rep, (a, b), value, grid.n_points, grid.half_extent, band
    )
    print(f"seminorm[{args.rep}] a={args.a} b={args.b} value={_fmt(value)}")
    if args.out:
        export_csv([report], args.out, header=SEMINORM_HEADER)
        print(f"wrote {args.out}")
    return 0


def _cmd_bound_check(args):
    state, _ = _resolve_state(args)
    chi, grid = _resolve_chi(args), _resolve_grid(args, state)
    try:
        ctx = BoundContext(state, chi=chi, grid=grid, max_total_order=args.order_cap)
    except ValueError as exc:  # every other argument is checked by now
        raise ValueError(f"--order-cap: {exc}") from None
    names = {"theorem": ["theorem"], "husimi": ["husimi"],
             "both": ["theorem", "husimi"]}[args.variant]
    reports = []
    for name in names:
        for a, b in ctx.index_pairs():
            reports.append(
                ctx.theorem_report(a, b) if name == "theorem"
                else ctx.husimi_report(a, b)
            )
    all_pass = all(rep.passed for rep in reports)
    for rep in reports:
        print(rep.row())
    print(f"bound-check: {len(reports)} rows, "
          f"{'all pass' if all_pass else 'VIOLATIONS found'}")
    if args.out:
        export_csv(reports, args.out, header=BOUND_HEADER)
        print(f"wrote {args.out}")
    return 0 if all_pass else 1


def _keep_freed_memory():
    """Keep a run's freed scratch mapped between its blocks (glibc only).

    By default glibc serves a block from the heap only once a block as
    large was freed, returns free heap beyond twice that size to the
    kernel, and gives each pool thread its own heap.  The transforms,
    seminorm tables and checks work in blocks of a few MB, and each grid
    transform frees about 11 MB at N = 256, so unpinned, that memory is
    mapped and faulted in afresh block after block: thousands of page
    faults per call, whose cost varies with the machine's load.  Pinned,
    blocks under 32 MiB come from the heap, up to 64 MiB of its free top
    stays mapped, and the threads share one heap, so what stays mapped is
    one high-water mark rather than one per thread.  `main` calls it once
    for every subcommand, before any work and before `verify` starts its
    pool; no effect off glibc.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)
    mallopt(_M_ARENA_MAX, 1)


def _cmd_verify(args):
    state, demo = _resolve_state(args)
    chi = _resolve_chi(args)
    cfg = parse_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        _, cfg.seed = _config_value("seed", args.seed, "--seed")
    if args.grid is not None:
        cfg.grid_n, cfg.grid_l = _parse_grid(args.grid)
    reports = run_suite(state, chi, cfg, demo=demo)
    print(CSV_HEADER)
    for rep in reports:
        print(rep.row())
    for rep in reports:
        if not rep.passed:
            reason = rep.info.get("error") or (
                f"residual {_fmt(rep.residual)} > tolerance {_fmt(rep.tolerance)}"
            )
            print(f"FAIL {rep.name}: {reason}", file=sys.stderr)
    all_pass = all(rep.passed for rep in reports)
    out = args.out or cfg.out
    if out:
        export_csv(reports, out, header=CSV_HEADER)
        print(f"wrote {out}")
    if not reports:
        print("verify: no checks ran")
        return 1
    print(f"verify: {'all checks pass' if all_pass else 'CHECK FAILURES'}")
    return 0 if all_pass else 1


def _cmd_demo(args):
    k_max = 6 if args.K is None else args.K
    if not 2 <= k_max <= HEAVY_TAIL_MAX_K:
        raise ValueError(f"--K must be in [2, {HEAVY_TAIL_MAX_K}], got {k_max}")
    code = 0
    if args.which in ("plateau", "all"):
        rep = check_plateau_decay()
        print(f"plateau: sup_x |W(x,p)| ~ p^-{rep.info['exponent']:.4f} "
              f"on p in [{PLATEAU_P_LO:g}, {PLATEAU_P_HI:g}] "
              f"(polynomial, not rapid, decay)")
        code = max(code, 0 if rep.passed else 1)
    if args.which in ("heavy-tail", "all"):
        rep = check_heavy_tail_trend(k_max)
        vals = ", ".join(f"{k}: {_fmt(v)}" for k, v in rep.info.items())
        print("heavy-tail: first decay seminorm grows with K -> no uniform "
              "Schwartz control")
        print(f"  {vals}")
        code = max(code, 0 if rep.passed else 1)
    return code


def build_parser():
    parser = argparse.ArgumentParser(
        prog="phasespace",
        description="Phase-space representations, seminorms, and decay bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for which in ("wigner", "quasichar", "husimi"):
        sp = sub.add_parser(which, help=f"compute the {which} representation")
        _add_state_flags(sp, with_chi=(which == "husimi"))
        _add_grid_flag(sp)
        sp.set_defaults(func=lambda a, w=which: _cmd_transform(a, w))

    sp = sub.add_parser("matel", help="matrix element in the coherent family")
    _add_state_flags(sp, with_chi=True)
    sp.add_argument("--alpha", required=True, help="x,p of the left label")
    sp.add_argument("--beta", required=True, help="x,p of the right label")
    sp.set_defaults(func=_cmd_matel)

    sp = sub.add_parser("seminorm", help="weighted sup-seminorm of a representation")
    _add_state_flags(sp, with_chi=True)
    _add_grid_flag(sp)
    sp.add_argument("--a", required=True, help="decay multi-index, e.g. 1,0")
    sp.add_argument("--b", required=True, help="derivative multi-index")
    sp.add_argument(
        "--rep", choices=("wigner", "quasichar", "husimi"), default="wigner"
    )
    sp.add_argument("--band", default=DEFAULT_BAND,
                    help="edge fraction excluded from the sup")
    sp.set_defaults(func=_cmd_seminorm)

    sp = sub.add_parser("bound-check", help="decay-bound sweep over (a, b)")
    _add_state_flags(sp, with_chi=True)
    _add_grid_flag(sp)
    sp.add_argument("--order-cap", type=int, default=4,
                    help="max |a|+|b| in the sweep: 0 to 12 for one mode, 0 to 5 "
                         "for two")
    sp.add_argument("--variant", choices=("theorem", "husimi", "both"),
                    default="both")
    sp.set_defaults(func=_cmd_bound_check)

    sp = sub.add_parser("verify", help="run the identity-check suite")
    _add_state_flags(sp, with_chi=True)
    _add_grid_flag(sp)
    sp.add_argument(
        "--seed", type=int, default=None, help="sampling seed (overrides config)"
    )
    sp.add_argument("--config", default=None, help="key = value config file")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("demo", help="reproduce the counterexample diagnostics")
    sp.add_argument("--which", choices=("plateau", "heavy-tail", "all"),
                    default="all")
    sp.add_argument("--K", type=int, default=None)
    sp.set_defaults(func=_cmd_demo)
    return parser


def main(argv=None):
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # `--alpha -1,0` as `--alpha=-1,0`: argparse reads -1,0 as an option
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in ("--alpha", "--beta") and not argv[i].startswith("--"):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = parser.parse_args(argv)
    _keep_freed_memory()
    try:
        worker_count()  # a malformed PHASESPACE_THREADS exits 2 before any work
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GridResolutionError as exc:  # a cross-check of two routes failed
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc.filename}: not found", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
