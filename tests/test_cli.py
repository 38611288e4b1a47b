import json
import subprocess
import sys

import pytest

from lefkit.cli import main
from lefkit.lefschetz import collection_from_json, x32_minimal


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_ext_text(capsys):
    rc, out, _ = run(capsys, "ext", "--n", "2", "--from", "(0,0)", "--to", "(1,-3)")
    assert rc == 0
    assert out == "degree 2: 3\nvanishes: false\n"


def test_ext_text_vanishing(capsys):
    rc, out, _ = run(capsys, "ext", "--n", "2", "--from", "(1,0)", "--to", "(0,0)")
    assert rc == 0
    assert out == "vanishes: true\n"


def test_ext_json(capsys):
    rc, out, _ = run(
        capsys, "ext", "--n", "1", "--from", "(0,0)", "--to", "(1,1)", "--format", "json"
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema"] == "lefkit/1"
    assert doc["dims"] == [4, 0, 0]
    assert doc["vanishes"] is False


def test_verify_builtin_minimal(capsys):
    rc, out, _ = run(capsys, "verify", "--builtin", "x32-minimal")
    assert rc == 0
    assert "ranks: (13, 7, 7)" in out
    assert "verdict: ok" in out


def test_verify_json_fields(capsys):
    rc, out, _ = run(capsys, "verify", "--builtin", "xk1", "--k", "4", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["ranks"] == [11, 5]
    assert doc["exceptional"] is True
    assert doc["nesting_ok"] is True
    assert doc["fullness"] == "FULL"
    assert doc["verdict"] == "ok"


def test_verify_not_full_exits_1(capsys):
    # h=6 shares a factor with k=3, so the rectangular chain misses rank
    rc, out, _ = run(capsys, "verify", "--builtin", "x3n-rectangular", "--n", "5")
    assert rc == 1
    assert "NOT_FULL_BY_RANK" in out
    assert "verdict: fail" in out


def test_verify_inconclusive_exits_3(capsys):
    # exceptional and nested, but margin 0 is too tight for closure to decide
    rc, out, _ = run(capsys, "verify", "--builtin", "x32-minimal", "--margin", "0")
    assert rc == 3
    assert "fullness: INCONCLUSIVE" in out
    assert "verdict: fail" in out


def test_verify_residual(capsys):
    rc, out, _ = run(
        capsys, "verify", "--builtin", "x32-rect", "--residual", "(1,-1,0)"
    )
    assert rc == 0
    assert "residual: ok" in out


def test_verify_dump_roundtrip(capsys):
    rc, out, _ = run(capsys, "verify", "--builtin", "x32-minimal", "--dump")
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema"] == "lefkit/1"
    assert collection_from_json(out) == x32_minimal()


def test_verify_missing_builtin_arg(capsys):
    rc, _, err = run(capsys, "verify", "--builtin", "xk1")
    assert rc == 2
    assert err.startswith("error:")


def test_dims_tsv(capsys):
    rc, out, _ = run(capsys, "dims", "--h", "3", "--k", "3", "--format", "tsv")
    assert rc == 0
    assert out.splitlines() == [
        "lambda\tdim_schur\tdim_irrep_transpose\tdivisible",
        "(3)\t10\t1\tno",
        "(2,1)\t8\t2\tno",
        "(1,1,1)\t1\t1\tno",
    ]


def test_dims_text_mass(capsys):
    rc, out, _ = run(capsys, "dims", "--h", "3", "--k", "3")
    assert rc == 0
    assert "mass: 27" in out
    assert "divisibility: fail (witness (1,1,1))" in out


def test_bounds_text(capsys):
    rc, out, _ = run(capsys, "bounds", "--h", "3", "--k", "3")
    assert rc == 0
    assert "r0_min: 11" in out
    assert "rd_max: 7" in out
    assert "invariant_r0_min: 13" in out


def test_closure_from_dumped_collection(capsys, tmp_path):
    coll_path = tmp_path / "coll.json"
    trace_path = tmp_path / "trace.jsonl"
    rc, out, _ = run(
        capsys, "verify", "--builtin", "x32-minimal", "--dump",
        "--output", str(coll_path),
    )
    assert rc == 0
    rc, out, _ = run(
        capsys, "closure", "--seed-file", str(coll_path), "--margin", "2",
        "--trace-out", str(trace_path),
    )
    assert rc == 0
    assert "status: FULL" in out
    lines = trace_path.read_text().splitlines()
    assert lines
    first = json.loads(lines[0])
    assert set(first) == {"axis", "line", "window_start", "added"}


def test_closure_inconclusive_exits_3(capsys, tmp_path):
    seed_path = tmp_path / "seed.json"
    seed_path.write_text(json.dumps({"k": 2, "points": ["(0,0)"]}))
    rc, out, _ = run(capsys, "closure", "--seed-file", str(seed_path), "--n", "1")
    assert rc == 3
    assert "status: INCONCLUSIVE" in out


def test_closure_n_conflict(capsys, tmp_path):
    coll_path = tmp_path / "coll.json"
    run(capsys, "verify", "--builtin", "xk1", "--k", "2", "--dump",
        "--output", str(coll_path))
    rc, _, err = run(capsys, "closure", "--seed-file", str(coll_path), "--n", "3")
    assert rc == 2
    assert "conflicts" in err


def test_malformed_collection_file_exits_2(capsys, tmp_path):
    path = tmp_path / "coll.json"
    path.write_text(json.dumps({"schema": "lefkit/1", "k": 3, "n": 2, "blocks": [1]}))
    rc, out, err = run(capsys, "verify", "--collection", str(path))
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "blocks" in err
    rc, _, err = run(capsys, "closure", "--seed-file", str(path))
    assert rc == 2
    assert err.startswith("error:") and "blocks" in err


def test_malformed_seed_points_exit_2(capsys, tmp_path):
    path = tmp_path / "seed.json"
    for points in ([1], "(0,0)", [["(0,0)"]]):
        path.write_text(json.dumps({"k": 2, "points": points}))
        rc, _, err = run(capsys, "closure", "--seed-file", str(path), "--n", "1")
        assert rc == 2
        assert err.startswith("error:") and "points" in err


def test_bad_multidegree_exits_2(capsys):
    rc, _, err = run(capsys, "ext", "--n", "2", "--from", "(1,0", "--to", "(0,0)")
    assert rc == 2
    assert err.startswith("error:")


def test_search_smoke(capsys):
    rc, out, _ = run(capsys, "search", "--k", "2", "--n", "1", "--target", "minimal")
    assert rc == 0
    assert "hits: 1" in out
    assert "exhausted: yes" in out


def test_search_json_summary(capsys):
    rc, out, _ = run(
        capsys, "search", "--k", "3", "--n", "2", "--target", "rectangular",
        "--format", "json",
    )
    assert rc == 0
    summary = json.loads(out.splitlines()[-1])
    assert summary == {
        "summary": True, "hits": 0, "inconclusive": 0, "nodes": 0, "exhausted": True,
    }


def test_report(capsys):
    rc, out, _ = run(capsys, "report")
    assert rc == 0
    assert "x32-minimal" in out
    assert "FAIL" not in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "lefkit", "bounds", "--h", "2", "--k", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "r0_min: 3" in proc.stdout


def test_output_flag_writes_file(capsys, tmp_path):
    out_path = tmp_path / "bounds.tsv"
    rc, out, _ = run(
        capsys, "bounds", "--h", "3", "--k", "3", "--format", "tsv",
        "--output", str(out_path),
    )
    assert rc == 0
    assert out == ""
    assert out_path.read_text().splitlines()[1] == "3\t3\t11\t7\t13"
