"""Tests of the benchmark itself (not of uval).

    python3 -m pytest perfbench/test_perfbench.py [--basetemp DIR]

They check that seeds change values but not the stratified mix, that a
corrupted reference digest makes a run report a failure, that the
benchmark refuses to run without the package, and that the tracer's spans
nest and match the untraced outputs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter

import pytest

from common import HERE, ROOT, SRC, Drawer, child_env, load_refs

sys.path.insert(0, str(SRC))


def _rounds(wl_layout, sizes, seed, count):
    drawer = Drawer(seed, "run")
    return [drawer.round(r, wl_layout, sizes) for r in range(count)]


@pytest.mark.parametrize("name", ["cone_sweep", "algebra_warm", "cli_jobs"])
def test_seeds_change_values_not_cell_counts(name):
    if name == "cli_jobs":
        import clijobs

        pools = clijobs.pools()
        layout = [(kind, 1) for kind in clijobs.LIGHT_KINDS]
        sizes = {kind: len(pools[kind]) for kind in clijobs.LIGHT_KINDS}
    else:
        import workloads

        wl = workloads.WORKLOADS[name]()
        layout, sizes = wl.layout, wl.pool_sizes
    a = _rounds(layout, sizes, 1, 3)
    b = _rounds(layout, sizes, 2, 3)
    for ra, rb in zip(a, b):
        assert Counter(cell for cell, _ in ra) == Counter(cell for cell, _ in rb)
        assert Counter(cell for cell, _ in ra) == Counter(dict(layout))
    assert a != b
    assert sorted(a[0]) != sorted(b[0])
    assert _rounds(layout, sizes, 1, 3) == a


def _checkout(tmp_path, with_src=True):
    """A throwaway checkout holding the benchmark (and the package)."""
    root = tmp_path / "checkout"
    root.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", root)
    shutil.copytree(HERE, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(SRC, root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _run(root, workload, seed, seconds=1, trace=0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180, env=child_env(),
    )


def test_refuses_to_run_without_the_package(tmp_path):
    proc = _run(_checkout(tmp_path, with_src=False), "cone_sweep", 1)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_corrupted_reference_is_reported(tmp_path):
    import workloads

    wl = workloads.AlgebraWarm()
    cell, index = Drawer(3, "run").round(0, wl.layout, wl.pool_sizes)[0]
    root = _checkout(tmp_path)
    path = root / "perfbench" / "refs" / "algebra_warm.json"
    refs = json.loads(path.read_text())
    refs["cells"][cell][index][0] = "0" * 16
    path.write_text(json.dumps(refs))

    proc = _run(root, "algebra_warm", 3)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert f"{cell}#{index}" in proc.stdout


def test_traced_run_matches_untraced_and_spans_nest(tmp_path):
    root = _checkout(tmp_path)
    proc = _run(root, "algebra_warm", 5, trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    names = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(result["metrics"]) == names
    assert result["metrics"]["valuation.multiply.calls"]["value"] > 0

    lines = (root / ".perfbench" / "algebra_warm.spans.tsv").read_text().splitlines()[1:]
    spans = [line.split("\t") for line in lines]
    for name, start, end, parent, request in spans:
        assert int(start) <= int(end)
        if int(parent) >= 0:
            p = spans[int(parent)]
            assert int(p[1]) <= int(start) and int(end) <= int(p[2])


def test_references_cover_every_pool_item():
    import clijobs
    import workloads

    for name, cls in workloads.WORKLOADS.items():
        wl, refs = cls(), load_refs(name)
        assert {cell: len(items) for cell, items in refs["cells"].items()} == wl.pool_sizes
    refs = load_refs("cli_jobs")
    assert {c: len(i) for c, i in refs["cells"].items()} == {c: len(j) for c, j in clijobs.pools().items()}
