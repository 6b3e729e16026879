"""Command-line behavior: output formats, exit codes, config parsing,
and byte-level determinism of exported CSVs."""

import ctypes
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phasespace import (
    Atom,
    Grid,
    MixedState,
    PureState,
    random_mixture,
    save_state,
    vacuum_state,
    wigner,
)
from phasespace import bounds, cli, transforms, verify
from phasespace.cli import (
    BOUND_HEADER,
    SEMINORM_HEADER,
    export_csv,
    main,
    parse_config,
)
from phasespace.transforms import quasichar
from phasespace.verify import CSV_HEADER, RunConfig, VerifyReport


def run_cli(*argv):
    return main(list(argv))


def read_csv_values(path):
    """Round-trip reader for exported grid functions."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    cols = np.array(
        [[float(cell) for cell in row] for row in rows]
    ) if rows else np.empty((0, len(header)))
    return header, cols


# --- csv export --------------------------------------------------------------


def test_export_real_fn_roundtrip(tmp_path):
    fn = wigner(vacuum_state(1), Grid(2, 32, 8.0))
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    export_csv(fn, path_a)
    export_csv(fn, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    header, cols = read_csv_values(path_a)
    assert header == ["x", "p", "value"]
    assert cols.shape == (32 * 32, 3)
    # %.17g round-trips doubles exactly
    assert np.array_equal(cols[:, 2].reshape(32, 32), fn.values)


def test_export_complex_fn_columns(tmp_path):
    fn = quasichar(vacuum_state(1), Grid(2, 64, 8.0))
    path = tmp_path / "x.csv"
    export_csv(fn, path)
    header, cols = read_csv_values(path)
    assert header == ["x", "p", "re", "im"]
    vals = (cols[:, 2] + 1j * cols[:, 3]).reshape(64, 64)
    assert np.array_equal(vals, fn.values)


def test_export_empty_report_list(tmp_path):
    path = tmp_path / "empty.csv"
    export_csv([], path, header=BOUND_HEADER)
    assert path.read_text() == BOUND_HEADER + "\n"
    header, cols = read_csv_values(path)
    assert header == BOUND_HEADER.split(",")
    assert cols.shape[0] == 0


# --- config parsing -----------------------------------------------------------


def test_parse_config_full(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# suite configuration\n"
        "grid.N = 128\n"
        "grid.L = 10.0   # box half width\n"
        "seed = 7\n"
        "band = 0.2\n"
        "threads = 2\n"
        "out = reports.csv\n"
        "tol.duality = 1e-5\n"
        "\n"
    )
    cfg = parse_config(path)
    assert (cfg.grid_n, cfg.grid_l, cfg.seed) == (128, 10.0, 7)
    assert (cfg.band, cfg.threads, cfg.out) == (0.2, 2, "reports.csv")
    assert cfg.tolerances == {"duality": 1e-5}


@pytest.mark.parametrize(
    "line,needle",
    [
        ("grid.M = 4", "grid.M"),
        ("grid.N = ten", "bad value"),
        ("grid.N = 4", "out of range"),
        ("band = 0.7", "out of range"),
        ("seed = -1", ">= 0"),
        ("tol.warp = 1e-3", "unknown check"),
        ("tol.duality = 0", "positive"),
        ("just words", "key = value"),
    ],
)
def test_parse_config_rejects(tmp_path, line, needle):
    path = tmp_path / "bad.cfg"
    path.write_text(line + "\n")
    with pytest.raises(ValueError) as err:
        parse_config(path)
    assert needle in str(err.value)
    assert ":1:" in str(err.value)  # offending line is named


def test_run_config_defaults():
    cfg = RunConfig()
    assert (cfg.grid_n, cfg.grid_l, cfg.seed, cfg.band) == (256, 12.0, 0, 0.1)
    assert cfg.threads == 0 and cfg.tolerances == {}


def test_parse_config_band_range(tmp_path):
    # the band is the seminorms' [0, 0.5): 0.5 would leave no interior
    path = tmp_path / "band.cfg"
    path.write_text("band = 0.5\n")
    with pytest.raises(ValueError, match="out of range"):
        parse_config(path)
    path.write_text("band = 0\n")
    assert parse_config(path).band == 0.0


@pytest.mark.parametrize(
    "flag,needle",
    [("131072,12", "grid.N out of range [8, 65536]"),
     ("64,2e4", "grid.L out of range (0, 1e4]")],
)
def test_grid_flag_range_checked_first(monkeypatch, capsys, flag, needle):
    def no_transform(*args, **kwargs):
        raise AssertionError("a transform ran on an out-of-range grid")

    for module in (transforms, cli):
        monkeypatch.setattr(module, "wigner", no_transform)
    assert run_cli("wigner", "--demo", "vacuum", "--grid", flag) == 2
    err = capsys.readouterr().err
    assert "--grid" in err and needle in err


# --- transform subcommands ------------------------------------------------------


def test_wigner_subcommand(tmp_path, capsys):
    out = tmp_path / "w.csv"
    assert run_cli("wigner", "--demo", "vacuum", "--grid", "128,10", "--out", str(out)) == 0
    text = capsys.readouterr().out
    quad = float(text.splitlines()[0].split("quadrature=")[1])
    assert abs(quad - 1.0) < 1e-12
    assert f"wrote {out}" in text
    header, cols = read_csv_values(out)
    assert cols.shape == (128 * 128, 3)
    center = cols[(cols[:, 0] == 0.0) & (cols[:, 1] == 0.0)]
    assert abs(center[0, 2] - 1.0 / math.pi) < 1e-10


def test_quasichar_husimi_subcommands(capsys):
    assert run_cli("quasichar", "--demo", "vacuum", "--grid", "64,8") == 0
    assert run_cli("husimi", "--demo", "fock1", "--chi", "vacuum", "--grid", "64,8") == 0
    text = capsys.readouterr().out
    # Husimi quadrature equals (2 pi)^n times the trace
    quad = float(text.splitlines()[-1].split("quadrature=")[1])
    assert abs(quad - 2.0 * math.pi) < 1e-6


def test_matel_subcommand(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code = run_cli(
        "matel", "--demo", "vacuum", "--alpha", "0,0", "--beta", "0,0",
        "--out", str(out),
    )
    assert code == 0
    assert "matel = 1 +" in capsys.readouterr().out
    header, cols = read_csv_values(out)
    assert header == ["alpha_x", "alpha_p", "beta_x", "beta_p", "re", "im"]
    assert cols[0, 4] == 1.0


def test_seminorm_subcommand(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code = run_cli(
        "seminorm", "--demo", "vacuum", "--a", "1,0", "--b", "0,0",
        "--out", str(out),
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "value=0.1365173609918" in printed
    lines = out.read_text().splitlines()
    assert lines[0] == SEMINORM_HEADER
    assert lines[1].startswith('wigner,"1 0","0 0",')


# --- bound-check ---------------------------------------------------------------


def test_bound_check_sweep(tmp_path, capsys):
    out = tmp_path / "b.csv"
    code = run_cli(
        "bound-check", "--demo", "vacuum", "--order-cap", "1",
        "--variant", "theorem", "--out", str(out),
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "bound-check: 5 rows, all pass" in text
    lines = out.read_text().splitlines()
    assert lines[0] == BOUND_HEADER
    assert len(lines) == 6
    for line in lines[1:]:
        assert line.endswith(",1")


def test_bound_check_honours_grid(monkeypatch, capsys):
    grids = []
    real_context = cli.BoundContext

    def recording_context(*args, **kwargs):
        ctx = real_context(*args, **kwargs)
        grids.append((ctx.grid.n_points, ctx.grid.half_extent))
        return ctx

    monkeypatch.setattr(cli, "BoundContext", recording_context)
    argv = ("bound-check", "--demo", "vacuum", "--order-cap", "0")
    run_cli(*argv)
    default_rows = capsys.readouterr().out.splitlines()[:-1]
    run_cli(*argv, "--grid", "64,8")
    rows = capsys.readouterr().out.splitlines()[:-1]
    assert grids == [(256, 12.0), (64, 8.0)]
    assert rows != default_rows


def test_bound_check_state_file_gets_the_suggested_box(tmp_path, capsys):
    # one atom at x = 11.5 needs L = 20; the fixed L = 12 box printed
    # |W|_{(1,0),(0,0)} = 0.055 where the state's own box gives 3.667
    path = tmp_path / "far.json"
    save_state(PureState([Atom((0,), (11.5, 0.0), 1.0)]), path)
    argv = ("bound-check", "--state", str(path), "--order-cap", "1",
            "--variant", "theorem")
    assert run_cli(*argv) == 0
    default = capsys.readouterr().out
    assert run_cli(*argv, "--grid", "512,20") == 0
    assert capsys.readouterr().out == default
    assert '"1 0","0 0",3.667' in default


# --- verify --------------------------------------------------------------------


def test_verify_deterministic_csv(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert run_cli("verify", "--demo", "vacuum", "--out", str(out_a)) == 0
    assert run_cli("verify", "--demo", "vacuum", "--out", str(out_b)) == 0
    text = capsys.readouterr().out
    assert CSV_HEADER in text
    assert "all checks pass" in text
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.read_text().splitlines()[0] == CSV_HEADER


def test_verify_failure_exit_code(tmp_path, capsys):
    cfg = tmp_path / "strict.cfg"
    cfg.write_text("tol.duality = 1e-30\n")
    code = run_cli("verify", "--demo", "vacuum", "--config", str(cfg))
    assert code == 1
    assert "CHECK FAILURES" in capsys.readouterr().out


def test_verify_names_band_without_interior(tmp_path, capsys):
    # band 0.45 drops round(3.6) = 4 of 8 points at each end
    cfg = tmp_path / "band.cfg"
    cfg.write_text("grid.N = 8\nband = 0.45\nthreads = 2\n")
    assert run_cli("verify", "--demo", "vacuum", "--config", str(cfg)) == 1
    err = capsys.readouterr().err.splitlines()
    assert "FAIL duality: band 0.45 leaves no interior points" in err


def test_verify_grid_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("grid.N = 64\ngrid.L = 8\nseed = 1\n")
    assert run_cli("verify", "--demo", "vacuum", "--config", str(cfg)) == 0
    from_config = capsys.readouterr().out
    assert run_cli("verify", "--demo", "vacuum", "--seed", "1", "--grid", "64,8") == 0
    from_flag = capsys.readouterr().out
    assert from_flag == from_config
    rows = [line.split(",") for line in from_flag.splitlines()[1:] if "," in line]
    n_col = CSV_HEADER.split(",").index("N")
    assert rows and all(row[n_col] in ("64", "0") for row in rows)
    assert any(row[n_col] == "64" for row in rows)


def test_verify_grid_flag_range_checked(monkeypatch, capsys):
    def no_transform(*args, **kwargs):
        raise AssertionError("a transform ran on an out-of-range grid")

    for module in (transforms, cli, bounds, verify):
        monkeypatch.setattr(module, "wigner", no_transform)
    assert run_cli("verify", "--demo", "vacuum", "--grid", "3,8") == 2
    err = capsys.readouterr().err
    assert "--grid" in err and "grid.N" in err

def _fake_suite(reports, seen=None):
    def run_suite(state, chi, cfg, demo=None):
        if seen is not None:
            seen.append(cfg.seed)
        return reports

    return run_suite


def test_verify_seed_zero_overrides_config(tmp_path, monkeypatch, capsys):
    seen = []
    passing = VerifyReport("duality", 1e-9, 1e-6, 10, 256, 12.0, 5)
    monkeypatch.setattr(cli, "run_suite", _fake_suite([passing], seen))
    cfg = tmp_path / "seeded.cfg"
    cfg.write_text("seed = 5\n")
    assert run_cli("verify", "--demo", "vacuum", "--config", str(cfg), "--seed", "0") == 0
    assert run_cli("verify", "--demo", "vacuum", "--config", str(cfg)) == 0
    assert seen == [0, 5]


def test_verify_empty_plan_fails(monkeypatch, capsys):
    # all([]) is true: an empty report list must not read as a pass
    monkeypatch.setattr(cli, "run_suite", _fake_suite([]))
    assert run_cli("verify", "--demo", "vacuum") == 1
    assert capsys.readouterr().out.splitlines() == [CSV_HEADER, "verify: no checks ran"]


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc",
    reason="the allocator settings are glibc mallopt parameters",
)
def test_verify_pins_allocator_before_the_pool(monkeypatch, capsys):
    settings = [
        (cli._M_MMAP_THRESHOLD, cli._MMAP_THRESHOLD_BYTES),
        (cli._M_TRIM_THRESHOLD, cli._TRIM_THRESHOLD_BYTES),
        (cli._M_ARENA_MAX, 1),
    ]
    # glibc accepts each value (mallopt returns 0 for one out of range)
    libc = ctypes.CDLL(None)
    assert [libc.mallopt(param, value) for param, value in settings] == [1, 1, 1]

    calls, seen = [], []

    class Recorder:
        def mallopt(self, param, value):
            calls.append((param, value))
            return 1

    def run_suite(state, chi, cfg, demo=None):
        seen.append(list(calls))
        return [VerifyReport("duality", 1e-9, 1e-6, 10, 256, 12.0, 0)]

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: Recorder())
    monkeypatch.setattr(cli, "run_suite", run_suite)
    assert run_cli("verify", "--demo", "vacuum") == 0
    assert seen == [settings]


def test_verify_prints_failure_reasons(tmp_path, monkeypatch, capsys):
    raised = VerifyReport("husimi", math.inf, 0.0, 0, 0, 0.0, 3,
                          {"error": "grid too coarse"})
    loose = VerifyReport("trace", 2e-7, 1e-7, 2, 256, 12.0, 4)
    good = VerifyReport("duality", 1e-9, 1e-6, 10, 256, 12.0, 5)
    reports = [raised, good, loose]
    monkeypatch.setattr(cli, "run_suite", _fake_suite(reports))
    out = tmp_path / "r.csv"
    assert run_cli("verify", "--demo", "vacuum", "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == (
        [CSV_HEADER] + [rep.row() for rep in reports]
        + [f"wrote {out}", "verify: CHECK FAILURES"]
    )
    assert captured.err.splitlines() == [
        "FAIL husimi: grid too coarse",
        "FAIL trace: residual 1.9999999999999999e-07 > tolerance 9.9999999999999995e-08",
    ]
    expected = tmp_path / "expected.csv"
    export_csv(reports, expected, header=CSV_HEADER)
    assert out.read_bytes() == expected.read_bytes()


# --- demo ----------------------------------------------------------------------


def test_demo_diagnostics(capsys):
    assert run_cli("demo", "--which", "plateau") == 0
    assert "polynomial" in capsys.readouterr().out
    assert run_cli("demo", "--which", "heavy-tail", "--K", "3") == 0
    assert "grows with K" in capsys.readouterr().out


# --- error paths ----------------------------------------------------------------


def test_usage_errors(tmp_path, capsys):
    assert run_cli("wigner") == 2
    assert "exactly one" in capsys.readouterr().err
    assert run_cli("wigner", "--demo", "vacuum", "--state", "x.json") == 2
    assert run_cli("wigner", "--demo", "vacuum", "--grid", "32") == 2
    assert "N,L" in capsys.readouterr().err
    assert run_cli("wigner", "--state", str(tmp_path / "missing.json")) == 2
    assert "not found" in capsys.readouterr().err
    assert run_cli("wigner", "--demo", "heavy-tail", "--K", "25") == 2
    assert "K" in capsys.readouterr().err


def test_seminorm_band_out_of_range(capsys):
    code = run_cli(
        "seminorm", "--demo", "vacuum", "--a", "0,0", "--b", "0,0",
        "--band", "-0.1", "--grid", "64,12",
    )
    assert code == 2
    assert "band -0.1" in capsys.readouterr().err


def test_bad_thread_env(monkeypatch, capsys):
    monkeypatch.setenv("PHASESPACE_THREADS", "abc")
    assert run_cli("wigner", "--demo", "vacuum", "--grid", "32,8") == 2
    assert "PHASESPACE_THREADS" in capsys.readouterr().err


def test_negative_thread_env(monkeypatch, capsys):
    monkeypatch.setenv("PHASESPACE_THREADS", "-3")
    assert run_cli("wigner", "--demo", "vacuum", "--grid", "32,8") == 2
    assert "PHASESPACE_THREADS" in capsys.readouterr().err

def test_unknown_demo_rejected():
    with pytest.raises(SystemExit) as err:
        run_cli("wigner", "--demo", "squeezed")
    assert err.value.code == 2


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli("--help")
    assert err.value.code == 0
    text = capsys.readouterr().out
    for name in ("wigner", "quasichar", "husimi", "matel", "seminorm",
                 "bound-check", "verify", "demo"):
        assert name in text


def test_state_file_not_mutated(tmp_path):
    path = tmp_path / "state.json"
    save_state(vacuum_state(1), path)
    before = path.read_bytes()
    assert run_cli("wigner", "--state", str(path), "--grid", "32,8") == 0
    assert path.read_bytes() == before


# --- grid.N must be a power of two ----------------------------------------------


@pytest.fixture
def no_transforms(monkeypatch):
    def no_transform(*args, **kwargs):
        raise AssertionError("a transform ran on a grid that is not a power of two")

    for module in (transforms, cli, bounds, verify):
        for name in ("wigner", "quasichar", "husimi"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, no_transform)


def test_verify_grid_flag_names_power_of_two(no_transforms, capsys):
    assert run_cli("verify", "--demo", "vacuum", "--grid", "100,8") == 2
    err = capsys.readouterr().err
    assert "--grid" in err and "grid.N" in err and "power of two" in err


def test_config_grid_n_names_power_of_two_line(tmp_path, no_transforms, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("grid.N = 100\n")
    assert run_cli("verify", "--demo", "vacuum", "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:1:" in err and "power of two" in err


def test_wigner_grid_flag_not_power_of_two(no_transforms, capsys):
    assert run_cli("wigner", "--demo", "vacuum", "--grid", "100,8") == 2
    assert "power of two" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,flag,text",
    [
        (["matel", "--alpha", "a,0", "--beta", "0,0"], "--alpha", "a,0"),
        (["matel", "--alpha", "0,0", "--beta", "0,1j"], "--beta", "0,1j"),
        (["matel", "--alpha", "0,0,0", "--beta", "0,0"], "--alpha", "0,0,0"),
        (["wigner", "--grid", "ten,12"], "--grid", "ten"),
        (["verify", "--grid", "64,x"], "--grid", "x"),
        (["verify", "--grid", "64.0,8"], "--grid", "64.0"),
        (["seminorm", "--a", "1,0,0", "--b", "0,0"], "--a", "1,0,0"),
        (["seminorm", "--a", "0,0", "--b", "13,0"], "--b", "13,0"),
        (["seminorm", "--a", "0,0", "--b", "0,0", "--band", "0.7"], "--band", "0.7"),
        (["seminorm", "--a", "0,0", "--b", "0,0", "--band", "nan"], "--band", "nan"),
    ],
)
def test_malformed_number_names_its_flag(
    no_transforms, monkeypatch, capsys, argv, flag, text
):
    monkeypatch.setattr(cli, "matel", lambda *args: pytest.fail("matel ran"))
    monkeypatch.setattr(cli, "run_suite", lambda *args, **kw: pytest.fail("verify ran"))
    assert run_cli(argv[0], "--demo", "vacuum", *argv[1:]) == 2
    err = capsys.readouterr().err
    assert flag in err and repr(text) in err


@pytest.mark.parametrize("cap", ["13", "-1"])
def test_bound_check_order_cap_range_checked_first(no_transforms, capsys, cap):
    # the window decay table of a one-mode sweep needs order 2 * cap + 6 <= 32
    assert run_cli("bound-check", "--demo", "vacuum", "--order-cap", cap) == 2
    err = capsys.readouterr().err
    assert "--order-cap" in err and f"order cap {cap} outside [0, 12]" in err


# --- --chi FILE and demo --K ----------------------------------------------------


def test_chi_file_matches_named_window(tmp_path, capsys):
    path = tmp_path / "vacuum.json"
    save_state(vacuum_state(1), path)
    argv = ("matel", "--demo", "fock1", "--alpha", "0.4,-0.3", "--beta", "1.1,0.2")
    assert run_cli(*argv, "--chi", "vacuum") == 0
    named = capsys.readouterr().out
    assert run_cli(*argv, "--chi", str(path)) == 0
    assert capsys.readouterr().out == named


def test_chi_file_with_several_components_rejected(tmp_path, capsys):
    path = tmp_path / "mixture.json"
    save_state(random_mixture(np.random.default_rng(5), n_components=3), path)
    code = run_cli(
        "matel", "--demo", "fock1", "--alpha", "0,0", "--beta", "0,0",
        "--chi", str(path),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"--chi {path}" in err and "3 components" in err


@pytest.mark.parametrize("source", ["demo", "state"])
def test_state_k_outside_heavy_tail_rejected(tmp_path, capsys, source):
    if source == "demo":
        state_args = ["--demo", "vacuum"]
    else:
        path = tmp_path / "vacuum.json"
        save_state(vacuum_state(1), path)
        state_args = ["--state", str(path)]
    assert run_cli("wigner", *state_args, "--K", "5", "--grid", "32,8") == 2
    assert "--K" in capsys.readouterr().err


def test_verify_heavy_tail_accepts_k(monkeypatch):
    # the suite itself is stubbed: only the flag handling is under test
    suites = []

    def record_suite(state, chi, cfg, demo=None):
        suites.append((state, demo))
        return [VerifyReport("trace", 1e-9, 1e-6, 1, 256, 12.0, 0)]

    monkeypatch.setattr(cli, "run_suite", record_suite)
    assert run_cli("verify", "--demo", "heavy-tail", "--K", "3") == 0
    [(state, demo)] = suites
    assert demo == "heavy_tail" and len(state.pure_states) == 3


@pytest.mark.parametrize("k", ["0", "1", "-3", "21"])
def test_demo_k_out_of_range_rejected_before_work(monkeypatch, capsys, k):
    def no_work(*args, **kwargs):
        raise AssertionError("a diagnostic ran with an out-of-range --K")

    for name in ("check_plateau_decay", "check_heavy_tail_trend"):
        monkeypatch.setattr(cli, name, no_work)
    assert run_cli("demo", "--K", k) == 2
    err = capsys.readouterr().err
    assert "--K" in err and "[2, 20]" in err


def test_demo_k_range_ends_accepted(capsys):
    for k in ("2", "20"):
        assert run_cli("demo", "--which", "heavy-tail", "--K", k) == 0
    assert "K=20:" in capsys.readouterr().out


# --- each flag only where it is read ---------------------------------------------


STATE_COMMANDS = {
    "wigner": [],
    "quasichar": [],
    "husimi": [],
    "matel": ["--alpha", "0,0", "--beta", "0,0"],
    "seminorm": ["--a", "0", "--b", "0"],
    "bound-check": [],
}


@pytest.mark.parametrize("command", sorted(STATE_COMMANDS))
def test_seed_only_on_verify(no_transforms, capsys, command):
    argv = [command, "--demo", "vacuum", *STATE_COMMANDS[command], "--seed", "5"]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


def test_matel_takes_no_grid(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("matel", "--demo", "vacuum", *STATE_COMMANDS["matel"], "--grid", "32,8")
    assert exc.value.code == 2
    assert "unrecognized arguments: --grid 32,8" in capsys.readouterr().err


def test_verify_negative_seed_rejected(monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(cli, "run_suite", _fake_suite([], seen))
    assert run_cli("verify", "--demo", "vacuum", "--seed", "-3") == 2
    assert seen == []
    err = capsys.readouterr().err
    assert "--seed" in err and "seed must be >= 0: -3" in err


@pytest.mark.parametrize("flag", ["--alpha", "--beta"])
@pytest.mark.parametrize("point", ["nan,0", "0,inf", "-inf,1"])
def test_matel_non_finite_point_rejected(monkeypatch, capsys, flag, point):
    def no_matel(*args, **kwargs):
        raise AssertionError("matel ran on a non-finite point")

    monkeypatch.setattr(cli, "matel", no_matel)
    labels = {"--alpha": "0,0", "--beta": "0,0", flag: point}
    argv = ["matel", "--demo", "vacuum"]
    # "--beta=-inf,1": a separate "-inf,1" would parse as an option
    argv += [f"{name}={value}" for name, value in labels.items()]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert flag in err and "finite" in err and point in err


def test_verify_plateau_end_to_end(capsys):
    assert run_cli("verify", "--demo", "plateau") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == CSV_HEADER and lines[-1] == "verify: all checks pass"
    rows = [line.split(",") for line in lines[1:-1]]
    assert [row[0] for row in rows] == ["marginal-pointwise", "plateau-decay"]
    assert all(row[CSV_HEADER.split(",").index("passed")] == "1" for row in rows)


@pytest.mark.parametrize(
    "argv",
    [
        ("quasichar", "--demo", "plateau"),
        ("husimi", "--demo", "plateau"),
        ("seminorm", "--demo", "plateau", "--a", "0,0", "--b", "0,0", "--rep", "husimi"),
    ],
)
def test_grid_resolution_failure_is_an_error_line(argv, capsys):
    # the plateau's corner breaks both cross-checks on its suggested grid
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "residual" in err
    assert "Traceback" not in err and err.count("\n") == 1


# --- negative matel coordinates, state-file trace, start-up imports -------------


@pytest.mark.parametrize("flag", ["--alpha", "--beta"])
def test_matel_negative_point_after_a_space(capsys, flag):
    labels = {"--alpha": "0.3,0.2", "--beta": "0,0", flag: "-1.0,-0.5"}
    spaced = [t for name, value in labels.items() for t in (name, value)]
    glued = [f"{name}={value}" for name, value in labels.items()]
    assert run_cli("matel", "--demo", "fock1", *spaced) == 0
    out = capsys.readouterr().out
    assert run_cli("matel", "--demo", "fock1", *glued) == 0
    assert capsys.readouterr().out == out
    assert out.startswith("matel = ")


@pytest.mark.parametrize("flag", ["--alpha", "--beta"])
def test_matel_malformed_negative_point_names_its_flag(monkeypatch, capsys, flag):
    monkeypatch.setattr(cli, "matel", lambda *args: pytest.fail("matel ran"))
    labels = {"--alpha": "0,0", "--beta": "0,0", flag: "-x,1"}
    argv = [t for name, value in labels.items() for t in (name, value)]
    assert run_cli("matel", "--demo", "vacuum", *argv) == 2
    err = capsys.readouterr().err
    assert flag in err and "'-x,1'" in err


def test_state_file_with_trace_off_one_rejected(tmp_path, capsys, no_transforms):
    rho = random_mixture(np.random.default_rng(1))
    scaled = MixedState([1e10 * w for w in rho.weights], rho.pure_states)
    path = tmp_path / "scaled.json"
    save_state(scaled, path)
    assert run_cli("wigner", "--state", str(path), "--grid", "32,8") == 2
    err = capsys.readouterr().err
    assert f"{path}: trace 99999999" in err and "normalize" in err
    save_state(rho, path)
    assert run_cli("matel", "--state", str(path), "--alpha", "0,0",
                   "--beta", "0,0") == 0


def test_state_file_order_above_hermite_cap_rejected(tmp_path, capsys, no_transforms):
    # phi_1000 came back as 0 past |y| = 38.6; the order is refused by name
    path = tmp_path / "high.json"
    atom = {"m": 1000, "alpha": [0.0, 0.0], "coeff": [1.0, 0.0]}
    path.write_text(json.dumps({"weights": [1.0], "pure_states": [{"atoms": [atom]}]}))
    assert run_cli("matel", "--state", str(path), "--alpha", "0,0",
                   "--beta", "0,0") == 2
    err = capsys.readouterr().err
    assert "pure_states[0].atoms[0]: hermite order 1000 exceeds cap" in err


def test_chi_file_keeps_normalizing(tmp_path, capsys):
    path = tmp_path / "chi.json"
    save_state(vacuum_state(1).scaled(2.0), path)
    argv = ("matel", "--demo", "fock1", "--alpha", "0.4,-0.3", "--beta", "1.1,0.2")
    assert run_cli(*argv, "--chi", "vacuum") == 0
    named = capsys.readouterr().out
    assert run_cli(*argv, "--chi", str(path)) == 0
    assert capsys.readouterr().out == named


def test_cli_import_leaves_scipy_out():
    code = "import sys, phasespace.cli; print('scipy' in sys.modules)"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert done.stdout.strip() == "False"
