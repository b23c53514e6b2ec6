"""scripts/bench_pairs.py writes its record into the --out file and keeps
what else the file holds, such as the rows of scripts/cold_costs.py."""

import json
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_bench_pairs_keeps_cold_costs(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import bench_pairs

    out = tmp_path / "BENCH_x.json"
    out.write_text(json.dumps({"cold_costs": {"runs": 5, "rows": {}}, "seed": 1}))
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: {"commit": rev, "src_tree": rev})
    monkeypatch.setattr(bench_pairs, "run", lambda checkout, workload, seed, trace: {
        "correct": 1, "attempted": 1, "failed": 0, "metrics": {"rate_per_s": 2.0}})
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--parent", "p", "--change", "c",
                                      "--seed", "7", "--out", str(out)])
    bench_pairs.main()
    record = json.loads(out.read_text())
    assert record["cold_costs"] == {"runs": 5, "rows": {}}
    assert record["seed"] == 7 and record["change"]["commit"] == "c"
    assert set(record["workloads"]) == set(bench_pairs.WORKLOADS)
