"""End-to-end acceptance runs.

Each test covers one numbered criterion, prints a single PASS/FAIL line
(outside pytest's capture, so progress is visible during the long
sweeps), and then asserts.  Tolerances and sample counts here are the
contract; do not relax them to make a run green.
"""

import math
import time

import numpy as np
import pytest

from phasespace import (
    Atom,
    BoundContext,
    Grid,
    PureState,
    fock_state,
    husimi,
    joint_seminorm,
    kernel_seminorm,
    quasichar,
    scaled_components,
    vacuum_state,
    wigner,
)
from phasespace.bounds import chi_seminorm_table, offdiag_reports
from phasespace.cli import main as cli_main
from phasespace.multiindex import box, order
from phasespace.verify import (
    check_cauchy_schwarz,
    check_duality,
    check_marginal,
    check_offdiag,
    check_overlap,
    check_reproducing,
    check_trace,
    check_wigner_decomp,
    check_wigner_from_matel,
    heavy_tail_first_seminorms,
    plateau_decay_exponent,
)


def _line(capsys, tag, ok, detail):
    with capsys.disabled():
        print(f"criterion {tag}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


def nongaussian_window():
    atoms = [Atom((0,), (0.0, 0.0), 1.0), Atom((2,), (0.0, 0.0), 0.6)]
    return PureState(atoms).normalized()


def test_c01_vacuum_closed_forms(grid, vacuum, capsys):
    start = time.perf_counter()
    axis = grid.axis()
    x, p = np.meshgrid(axis, axis, indexing="ij")
    mask = grid.interior_mask()
    w_err = np.abs(
        wigner(vacuum, grid).values - np.exp(-(x**2) - p**2) / np.pi
    )
    q_err = np.abs(
        husimi(vacuum, vacuum_state(1), grid).values
        - np.exp(-(x**2 + p**2) / 2.0)
    )
    x_err = np.abs(
        quasichar(vacuum, grid).values - np.exp(-(x**2 + p**2) / 4.0)
    )
    resid = max(w_err[mask].max(), q_err[mask].max(), x_err[mask].max())
    elapsed = time.perf_counter() - start
    ok = resid <= 1e-8 and elapsed < 5.0
    _line(capsys, "01 vacuum-closed-forms", ok, f"resid={resid:.3g} time={elapsed:.2f}s")
    assert resid <= 1e-8
    assert elapsed < 5.0


def test_c02_duality_ensemble(mixtures20, grid, capsys):
    start = time.perf_counter()
    worst = max(check_duality(m, grid).residual for m in mixtures20)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 30.0
    _line(capsys, "02 duality-ensemble", ok, f"worst={worst:.3g} time={elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 30.0


def test_c03_trace_overlap_ensemble(mixtures20, grid, capsys):
    worst = 0.0
    for m in mixtures20:
        worst = max(
            worst,
            check_trace(m, grid=grid).residual,
            check_overlap(m, grid=grid).residual,
        )
    ok = worst <= 1e-7
    _line(capsys, "03 trace-overlap", ok, f"worst={worst:.3g}")
    assert worst <= 1e-7


def test_c04_cauchy_schwarz_ensemble(mixtures20, capsys):
    worst = max(
        check_cauchy_schwarz(m, n_pairs=1000).residual for m in mixtures20
    )
    ok = worst <= 1e-9
    _line(capsys, "04 cauchy-schwarz", ok, f"worst={worst:.3g}")
    assert worst <= 1e-9


def test_c05_offdiag_closed_vs_direct(capsys):
    resid = check_offdiag(n_triples=50).residual
    ok = resid <= 1e-7
    _line(capsys, "05 offdiag-closed-form", ok, f"resid={resid:.3g}")
    assert resid <= 1e-7


def test_c06_offdiag_bound_chain(capsys):
    chi = vacuum_state(1)
    table = chi_seminorm_table(chi, (4, 4), (4, 4))
    small = Grid(2, 128, 12.0)
    cap = (4, 4)
    index_pairs = [
        (a, b)
        for a in box(cap)
        for b in box(cap)
        if order(a) + order(b) <= 4
    ]
    rng = np.random.default_rng(606)
    violations = 0
    checked = 0
    for _ in range(50):
        alpha = rng.uniform(-2.0, 2.0, 2)
        beta = rng.uniform(-2.0, 2.0, 2)
        reports = offdiag_reports(chi, alpha, beta, small, table, index_pairs)
        for tight, loose in reports:
            checked += 1
            if not (tight.lhs <= tight.rhs * (1 + 1e-9)
                    and tight.rhs <= loose.rhs * (1 + 1e-12)):
                violations += 1
    ok = violations == 0
    _line(capsys, "06 offdiag-bound-chain", ok, f"{checked} checks, {violations} violations")
    assert violations == 0


def test_c07_main_bound_sweep(mixtures20, grid, capsys):
    start = time.perf_counter()
    chi = vacuum_state(1)
    base = BoundContext(vacuum_state(1), chi=chi, grid=grid)
    worst = 0.0
    rows = 0
    contexts = [base] + [
        BoundContext(m, chi=chi, grid=grid).adopt_chi_tables(base)
        for m in mixtures20
    ]
    for ctx in contexts:
        for a, b in ctx.index_pairs():
            worst = max(
                worst,
                ctx.theorem_report(a, b).ratio,
                ctx.husimi_report(a, b).ratio,
            )
            rows += 2
    elapsed = time.perf_counter() - start
    ok = worst <= 1.0 and elapsed < 600.0
    _line(
        capsys, "07 main-bound-sweep", ok,
        f"{rows} rows, worst ratio={worst:.3g}, time={elapsed:.1f}s",
    )
    assert worst <= 1.0
    assert elapsed < 600.0


def test_c08_reproducing(mixtures20, capsys):
    cases = [
        (vacuum_state(1), None),
        (fock_state(1), None),
        (mixtures20[1], None),
        (mixtures20[2], None),
        (vacuum_state(1), nongaussian_window()),
    ]
    worst = max(
        check_reproducing(state, chi=chi).residual for state, chi in cases
    )
    ok = worst <= 1e-5
    _line(capsys, "08 reproducing", ok, f"5 states x 10 samples, worst={worst:.3g}")
    assert worst <= 1e-5


def test_c09_four_d_refinement(mixture, grid, capsys):
    r48_matel = check_wigner_from_matel(mixture, grid=grid).residual
    r64_matel = check_wigner_from_matel(mixture, grid=grid, n_nodes=64).residual
    r48_decomp = check_wigner_decomp(mixture, grid=grid).residual
    r64_decomp = check_wigner_decomp(mixture, grid=grid, n_nodes=64).residual
    ok = (
        r48_matel <= 2e-3
        and r48_decomp <= 5e-3
        and r48_matel >= 2.0 * r64_matel
        and r48_decomp >= 2.0 * r64_decomp
    )
    _line(
        capsys, "09 four-d-identities", ok,
        f"matel {r48_matel:.3g}->{r64_matel:.3g}, "
        f"decomp {r48_decomp:.3g}->{r64_decomp:.3g}",
    )
    assert r48_matel <= 2e-3
    assert r48_decomp <= 5e-3
    assert r48_matel >= 2.0 * r64_matel
    assert r48_decomp >= 2.0 * r64_decomp


def test_c10_marginals(grid, capsys):
    worst = max(
        check_marginal(vacuum_state(1), grid).residual,
        check_marginal(fock_state(1), grid).residual,
    )
    ok = worst <= 1e-8
    _line(capsys, "10 marginals", ok, f"worst={worst:.3g}")
    assert worst <= 1e-8


def test_c11_counterexample_diagnostics(capsys):
    values = heavy_tail_first_seminorms(6)
    strictly_up = all(hi > lo for lo, hi in zip(values, values[1:]))
    exponent = plateau_decay_exponent()
    in_window = 0.5 <= exponent <= 2.0
    ok = strictly_up and in_window
    _line(
        capsys, "11 counterexamples", ok,
        f"K=1..6 seminorms {values[0]:.3g}->{values[-1]:.3g} "
        f"{'up' if strictly_up else 'NOT MONOTONE'}, plateau exp={exponent:.3g}",
    )
    assert strictly_up
    assert in_window


def test_c12_kernel_envelope(mixtures20, capsys):
    idx = [(0,), (1,), (2,)]
    worst = 0.0
    checked = 0
    for m in mixtures20:
        comps = scaled_components(m)
        joint = {
            (a, b): joint_seminorm(comps, a, b) for a in idx for b in idx
        }
        for a in idx:
            for b in idx:
                for c in idx:
                    for d in idx:
                        lhs = kernel_seminorm(m, a, b, c, d)
                        worst = max(worst, lhs / (joint[(a, b)] * joint[(c, d)]))
                        checked += 1
    ok = worst <= 1.0 + 1e-9
    _line(capsys, "12 kernel-envelope", ok, f"{checked} checks, worst ratio={worst:.6g}")
    assert worst <= 1.0 + 1e-9


def test_c13_verify_determinism(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 3\nthreads = 2\n")
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    code_a = cli_main(
        ["verify", "--demo", "fock1", "--config", str(cfg), "--out", str(out_a)]
    )
    code_b = cli_main(
        ["verify", "--demo", "fock1", "--config", str(cfg), "--out", str(out_b)]
    )
    identical = out_a.read_bytes() == out_b.read_bytes()
    ok = code_a == 0 and code_b == 0 and identical
    _line(
        capsys, "13 verify-determinism", ok,
        f"exit codes ({code_a}, {code_b}), byte-identical={identical}",
    )
    assert code_a == 0 and code_b == 0
    assert identical
