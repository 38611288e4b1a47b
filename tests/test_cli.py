import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import lefkit
from lefkit import explorer, lattice, reptheory
from lefkit.cli import main
from lefkit.lefschetz import collection_from_json, x32_minimal


GOLDEN_PATH = Path(__file__).with_name("cli_golden.json")
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_golden_case(argv) -> dict:
    """Run `main(argv)` in the current directory, seeded with the golden input files.

    Returns what the golden file records: the exit code, stdout, stderr and
    the sha256 of every file the run wrote.
    """
    for name, text in GOLDEN["files"].items():
        Path(name).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code
    written = {
        name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
        for name in sorted(os.listdir("."))
        if name not in GOLDEN["files"]
    }
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "written": written}


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda case: case["id"])
def test_golden_output(case, tmp_path, monkeypatch):
    # every command, format, verdict and error path, byte for byte
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "100")  # argparse wraps help and usage to this width
    expected = {key: case[key] for key in ("rc", "stdout", "stderr", "written")}
    assert run_golden_case(case["argv"]) == expected


def test_readme_commands_run(tmp_path, monkeypatch):
    # the documented command lines, in order, against the real parser
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv[1:] for argv in commands if argv[:1] == ["lefkit"]]
    assert len(commands) >= 9
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv


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


@pytest.mark.parametrize(
    "argv",
    [
        ("ext", "--n", "1", "--from", "(0)", "--to", "(0)"),
        ("verify", "--builtin", "xk1", "--k", "2"),
        ("closure", "--seed-file", "seed.json"),
        ("search", "--k", "2", "--n", "1", "--target", "minimal"),
        ("report",),
    ],
    ids=lambda argv: argv[0],
)
def test_tsv_is_a_usage_error_where_not_rendered(capsys, argv):
    # only dims and bounds render tsv; elsewhere argparse refuses it
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "tsv"])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert "invalid choice: 'tsv'" in err


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
    # a non-integer k is refused, not truncated to a smaller closure
    for k in (2.9, True, "2"):
        path.write_text(json.dumps({"k": k, "points": ["(0,0)", "(1,0)"]}))
        rc, out, err = run(capsys, "closure", "--seed-file", str(path), "--n", "1")
        assert (rc, out) == (2, "")
        assert err.startswith("error:") and "k must be an integer" in err
    path.write_text(json.dumps({"schema": "lefkit/1", "k": 2, "n": 1.5, "blocks": [["(0,0)"]]}))
    for argv in (("closure", "--seed-file", str(path)), ("verify", "--collection", str(path))):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert "n must be an integer, got 1.5" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--builtin", "x32-minimal"),
        ("verify", "--builtin", "x3n-rectangular", "--n", "5"),  # decided by rank alone
        ("verify", "--builtin", "x32-rect", "--residual", "(1,-1,0)"),
        ("closure", "--seed-file", "seed.json", "--n", "3"),
        # no candidate reaches the closure, so only the search spec can refuse it
        ("search", "--k", "3", "--n", "2", "--target", "rectangular", "--no-prune"),
    ],
    ids=["verify", "verify-by-rank", "verify-residual", "closure", "search-no-closure"],
)
def test_negative_margin_exits_2(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    Path("seed.json").write_text(json.dumps({"k": 2, "points": ["(0,0)"]}))
    rc, out, err = run(capsys, *argv, "--margin", "-1")
    assert (rc, out, err) == (2, "", "error: margin must be nonnegative\n")


def test_oversized_collections_refused_before_building(capsys, tmp_path, monkeypatch):
    def boom(values):
        raise AssertionError("orbit elements generated before the size check")

    monkeypatch.setattr(lattice, "_multiset_permutations", boom)
    path = tmp_path / "coll.json"
    path.write_text(json.dumps({"schema": "lefkit/1", "k": 40, "n": 1,
                                "blocks": [["(" + ",".join(["1"] * 20 + ["0"] * 20) + ")"]]}))
    for argv in (
        ("verify", "--builtin", "xk1", "--k", "30"),
        ("search", "--k", "20", "--n", "1", "--target", "minimal"),
        ("verify", "--collection", str(path)),
    ):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, ""), argv
        assert err.startswith("error: S_k-stable set of") and "limit" in err


def test_oversized_partition_lists_refused_before_building(capsys, monkeypatch):
    def boom(total, parts, cap):
        raise AssertionError("partitions generated before the size check")

    monkeypatch.setattr(reptheory, "decreasing_tuples", boom)
    for argv, count in ((("bounds", "--h", "50", "--k", "50"), 204226),
                        (("dims", "--h", "100", "--k", "100"), 190569292)):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, ""), argv
        assert err == (f"error: {count} partitions of {argv[-1]} with at most {argv[2]} rows "
                       "are more than the limit of 65536\n")


def test_oversized_searches_refused_before_sorting_chains(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("chain combinations sorted before the size check")

    monkeypatch.setattr(explorer, "sorted", boom, raising=False)
    # (3, 6) counts every chain; (2, 2000) is refused by the partition lower bound
    for argv, size in ((("--k", "3", "--n", "6", "--budget", "10"), 9667903),
                       (("--k", "2", "--n", "2000"), 65537)):
        rc, out, err = run(capsys, "search", *argv, "--target", "minimal")
        assert (rc, out) == (2, ""), argv
        assert err.startswith(f"error: at least {size} chain combinations")
        assert err.endswith("more than the limit of 65536; use a smaller n or k\n")


def test_huge_n_refused_before_allocating_graded_dimensions(capsys, tmp_path):
    huge = 10 ** 12
    path = tmp_path / "coll.json"
    path.write_text(json.dumps({"schema": "lefkit/1", "k": 1, "n": huge,
                                "blocks": [["(5)"], ["(0)"]]}))
    for argv in (("ext", "--n", str(huge), "--from", "(0)", "--to", "(0)"),
                 ("verify", "--collection", str(path))):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, ""), argv
        assert err == (f"error: graded dimensions in {huge + 1} degrees are more than "
                       "the limit of 1048576\n")


@pytest.mark.parametrize("margin, rc, line", [("0", 3, "residual: 1 violations"),
                                               ("1", 0, "residual: ok")])
def test_residual_closure_stopping_short_exits_3(capsys, margin, rc, line):
    # the union has the right 27 bundles; at margin 0 its closure stops short
    argv = ("verify", "--builtin", "x32-rect", "--residual", "(1,-1,0)", "--margin", margin)
    got, out, _ = run(capsys, *argv)
    assert got == rc
    assert line in out.splitlines()


def test_bad_multidegree_exits_2(capsys):
    rc, _, err = run(capsys, "ext", "--n", "2", "--from", "(1,0", "--to", "(0,0)")
    assert rc == 2
    assert err.startswith("error:")
    rc, out, err = run(capsys, "ext", "--n", "1", "--from", "(1_0)", "--to", "(0)")
    assert (rc, out) == (2, "")
    assert err == "error: non-integer coordinate in '(1_0)'\n"


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


def test_search_with_inconclusive_candidates_exits_3(capsys):
    # at margin 0 the known (13,7,7) chain is inconclusive, so the one hit
    # found, (19,7,1), is no certified minimum even though the pool is exhausted
    rc, out, _ = run(
        capsys, "search", "--k", "3", "--n", "2", "--target", "minimal", "--margin", "0"
    )
    assert rc == 3
    assert out.splitlines()[-1] == "hits: 1, inconclusive: 3, nodes: 1008, exhausted: yes"


def test_report(capsys):
    rc, out, _ = run(capsys, "report")
    assert rc == 0
    assert "x32-minimal" in out
    assert "FAIL" not in out


def test_module_entry_point():
    # the child imports the same lefkit as this process, installed or not
    src = str(Path(lefkit.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "lefkit", "bounds", "--h", "2", "--k", "2"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
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


if __name__ == "__main__":
    # Re-record the golden expectations from the current code:
    #   PYTHONPATH=src python tests/test_cli.py
    import tempfile

    os.environ["COLUMNS"] = "100"
    for case in GOLDEN["cases"]:
        with tempfile.TemporaryDirectory() as tmp:
            here = os.getcwd()
            os.chdir(tmp)
            try:
                case.update(run_golden_case(case["argv"]))
            finally:
                os.chdir(here)
    GOLDEN_PATH.write_text(json.dumps(GOLDEN, indent=1) + "\n", encoding="utf-8")
