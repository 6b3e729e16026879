"""Tests of the benchmark harness itself.

    python3 -m pytest bench/test_smoke.py

The smoke test runs `bench/run.py --smoke`: every workload on tiny inputs,
untraced and traced, in well under a minute.  The other tests check that
the span recorder wraps every binding site, attaches pool-thread spans to
the open span of the calling thread, and puts every original back.
"""

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import phasespace  # noqa: E402
import spans  # noqa: E402
from phasespace import bounds, transforms, verify  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_smoke_mode_checks_outputs_and_reports_every_metric():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in SPEC["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            for metric in SPEC[group]:
                key = f"{workload['name']}.trace{trace}.{metric['name']}"
                assert result["metrics"][key]["unit"] == metric["unit"]
    for workload in SPEC["workloads"]:
        assert result["metrics"][f"{workload['name']}.trace0.wall_s"]["value"] > 0


def test_recorder_wraps_every_binding_site_and_restores_it():
    original = transforms.wigner
    kernel = phasespace.MixedState.kernel
    recorder = spans.SpanRecorder()
    with recorder:
        bound = {phasespace.wigner, transforms.wigner, verify.wigner, bounds.wigner}
        assert len(bound) == 1 and original not in bound
        assert phasespace.MixedState.kernel is not kernel
        verify.wigner(phasespace.vacuum_state(1), phasespace.Grid(2, 32, 6.0))
    assert spans.installed_wrappers() == []
    assert phasespace.wigner is original and verify.wigner is original
    assert phasespace.MixedState.kernel is kernel
    by_name = {s["name"]: s for s in recorder.spans}
    outer = by_name["transforms.wigner"]
    assert by_name["states.MixedState.kernel"]["parent"] == outer["id"]
    assert outer["key"] is not None and outer["end"] >= outer["start"]


def test_pool_thread_spans_attach_to_the_open_span_of_the_caller():
    recorder = spans.SpanRecorder()
    grid = phasespace.Grid(2, 32, 6.0)
    with recorder, ThreadPoolExecutor(max_workers=2) as pool:
        outer = recorder.wrap(
            "outer", lambda: pool.submit(transforms.wigner, phasespace.vacuum_state(1),
                                         grid).result()
        )
        outer()
    by_name = {s["name"]: s for s in recorder.spans}
    assert by_name["transforms.wigner"]["parent"] == by_name["outer"]["id"]
    assert by_name["transforms.wigner"]["thread"] != by_name["outer"]["thread"]


def test_recorder_keeps_every_span_under_thread_contention():
    recorder = spans.SpanRecorder()
    inner = recorder.wrap("inner", lambda: None)
    outer = recorder.wrap("outer", lambda: [inner() for _ in range(200)])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(outer) for _ in range(8)]
            for future in futures:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    outers = {s["id"]: s for s in recorder.spans if s["name"] == "outer"}
    inners = [s for s in recorder.spans if s["name"] == "inner"]
    assert len(outers) == 8 and len(inners) == 8 * 200
    assert len({s["id"] for s in recorder.spans}) == len(recorder.spans)
    for span in inners:
        assert outers[span["parent"]]["thread"] == span["thread"]


def test_self_time_subtracts_the_union_of_child_intervals():
    tree = [
        {"id": 1, "name": "a", "start": 0.0, "end": 10.0, "parent": 0},
        {"id": 2, "name": "b", "start": 1.0, "end": 5.0, "parent": 1},
        {"id": 3, "name": "b", "start": 3.0, "end": 6.0, "parent": 1},
    ]
    self_s, _ = spans._self_times(tree)
    assert self_s == {1: 5.0, 2: 4.0, 3: 3.0}
    assert spans.margin_digits(0.0, 1e-6) == 12.0
    assert spans.margin_digits(float("inf"), 1e-6) < 0
