import contextlib
import doctest
import hashlib
import heapq
import io
import itertools
import json
import os
import shlex
import subprocess
import sys
import tempfile
from math import comb
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import lefkit
from lefkit import cli, explorer, lattice, lefschetz, reptheory, saturation
from lefkit.cli import main
from lefkit.ext import ext_graded
from lefkit.lattice import format_multidegree
from lefkit.lefschetz import collection_from_json, collection_to_json, x32_minimal


GOLDEN_PATH = Path(__file__).with_name("cli_golden.json")
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading, fence):
    """The text of the first ```fence block after the README heading."""
    text = README.read_text(encoding="utf-8").split(heading, 1)[1]
    return text.split("```" + fence, 1)[1].split("```", 1)[0]


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
    block = readme_block("## Command line", "sh")
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv[1:] for argv in commands if argv[:1] == ["lefkit"]]
    assert len(commands) >= 9
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv


def test_readme_library_example_runs():
    # the >>> session under "Library example"; plain `python -m doctest README.md`
    # would also read the closing fence as expected output
    block = readme_block("## Library example", "python")
    example = doctest.DocTestParser().get_doctest(block, {}, "README", str(README), 0)
    report = io.StringIO()
    result = doctest.DocTestRunner().run(example, out=report.write)
    assert result.attempted >= 6
    assert result.failed == 0, report.getvalue()


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
    # an option missing, or given where it does not apply or cannot hold
    for argv in (
        ("verify", "--builtin", "xk1"),
        ("search", "--k", "2", "--n", "2", "--target", "minimal", "--no-prune"),
        ("search", "--k", "2", "--n", "2", "--target", "minimal", "--pool-hi", "-1"),
    ):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, ""), argv
        assert err.startswith("error:"), argv


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--builtin", "xk1", "--k", "3", "--n", "5"), "--builtin xk1 takes no --n"),
        (("--builtin", "x3n-rectangular", "--n", "3", "--k", "3"),
         "--builtin x3n-rectangular takes no --k"),
        (("--builtin", "x32-minimal", "--k", "5"), "--builtin x32-minimal takes no --k"),
        (("--builtin", "x32-rect", "--n", "2", "--dump"), "--builtin x32-rect takes no --n"),
        (("--collection", "coll.json", "--k", "3"), "--collection takes no --k"),
        (("--collection", "coll.json", "--n", "2"), "--collection takes no --n"),
        (("--builtin", "xk1", "--collection", "coll.json"), "--collection takes no --builtin"),
        (("--builtin", "x32-rect", "--dump", "--residual", "(9,9)", "--margin", "-5"),
         "--dump takes no --residual"),
        (("--builtin", "x32-rect", "--dump", "--margin", "2"), "--dump takes no --margin"),
    ],
    ids=["xk1-n", "x3n-k", "x32-minimal-k", "x32-rect-n", "collection-k", "collection-n",
         "collection-builtin", "dump-residual", "dump-margin"],
)
def test_verify_refuses_k_and_n_its_source_does_not_take(
    capsys, tmp_path, monkeypatch, argv, message
):
    # a dropped option is a wrong verdict: --builtin xk1 --k 3 --n 5 would verify (P^1)^3
    monkeypatch.chdir(tmp_path)
    Path("coll.json").write_text(collection_to_json(x32_minimal()), encoding="utf-8")
    rc, out, err = run(capsys, "verify", *argv)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


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


def rule_applications(docs, k):
    """The RuleApplications of trace documents, parsed as an outside reader would."""
    return tuple(
        saturation.RuleApplication(
            axis=doc["axis"],
            line=tuple(doc["line"]),
            window_start=doc["window_start"],
            added=tuple(lattice.parse_multidegree(p, k) for p in doc["added"]),
        )
        for doc in docs
    )


def read_trace(path, k):
    """The RuleApplications of a `--trace-out` file."""
    return rule_applications(map(json.loads, path.read_text().splitlines()), k)


@pytest.mark.parametrize(
    "coll, margin",
    [(x32_minimal(), 2), (lefschetz.xk1(4), None), (lefschetz.xk1(6), None)],
    ids=["x32-minimal", "xk1-4", "xk1-6"],
)
def test_full_closure_certificate_replays_to_what_it_prints(capsys, tmp_path, coll, margin):
    seed_path, trace_path = tmp_path / "seed.json", tmp_path / "trace.jsonl"
    seed_path.write_text(collection_to_json(coll))
    argv = ["closure", "--seed-file", str(seed_path), "--trace-out", str(trace_path)]
    rc, out, _ = run(capsys, *argv, *(["--margin", str(margin)] if margin else []))
    assert rc == 0
    fields = dict(line.split(": ", 1) for line in out.splitlines())
    assert fields["status"] == "FULL"
    members, _, box_size = fields["members"].partition(" of ")
    m = margin if margin else coll.n + 1
    box = lattice.Box(lo=-m, hi=coll.n + m, k=coll.k)
    assert box_size == str(box.size)
    trace = read_trace(trace_path, coll.k)
    assert fields["trace entries"] == str(len(trace))
    replayed = saturation.replay_trace(lefschetz.flatten_bundles(coll), coll.n, box, trace)
    assert members == str(len(replayed))
    assert set(lattice.Box(lo=0, hi=coll.n, k=coll.k).points()) <= replayed


def orbit_rules(docs, k):
    """The OrbitRules of orbit trace documents, parsed as an outside reader would."""
    return tuple(
        saturation.OrbitRule(
            line=tuple(doc["line"]),
            window_start=doc["window_start"],
            added=tuple(lattice.parse_multidegree(p, k) for p in doc["added"]),
        )
        for doc in docs
    )


def test_inconclusive_closure_writes_the_engine_trace(capsys, tmp_path):
    seed_path, trace_path = tmp_path / "seed.json", tmp_path / "trace.jsonl"
    seed = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    seed_path.write_text(json.dumps({"k": 3, "points": [format_multidegree(p) for p in seed]}))
    argv = ["closure", "--seed-file", str(seed_path), "--n", "1", "--trace-out", str(trace_path)]
    # the default box of 6^3 cells is at most REPS_MAX_CELLS, the box of 26^3 above it
    for margin, engine, read in [
        (None, saturation.close_orbits, orbit_rules),
        (12, saturation.close_cube, rule_applications),
    ]:
        rc, out, _ = run(capsys, *argv, *(["--margin", str(margin)] if margin else []))
        assert rc == 3
        state, missing = engine(seed, 1, 3, margin)
        assert lattice.on_reps(3, state.box.size) == (engine is saturation.close_orbits)
        assert missing and state.trace
        docs = list(map(json.loads, trace_path.read_text().splitlines()))
        assert all(("axis" in doc) == (engine is saturation.close_cube) for doc in docs)
        assert read(docs, 3) == state.trace
        assert f"members: {state.member_count} of {state.box.size}" in out
        assert "missing: " + cli._missing_text(missing) in out


def test_trace_docs_match_the_rule_applications():
    # wide margins give negative and two-digit coordinates; the last case is
    # an INCONCLUSIVE k = 4 stable seed, which closes on orbit reps
    states = [
        saturation.close_cube(seed, n, len(seed[0]), margin)[0]
        for seed, n, margin in (
            (lefschetz.flatten_bundles(x32_minimal()), 2, 11),
            ([(-3, 0), (-2, 0), (-3, 1), (-2, 1)], 1, 12),
            ([(0,), (1,), (2,)], 2, 120),
        )
    ]
    orbit_state, missing = saturation.close_seed(xk1_without_weight(4, 1), 1, 4, 2)
    assert isinstance(orbit_state, saturation.OrbitClosureState) and missing
    assert orbit_state.trace
    for state in states + [orbit_state]:
        on_grid = isinstance(state, saturation.ClosureState)
        # compared as JSON text, so the key order is pinned too
        want = [
            json.dumps({
                **({"axis": rule.axis} if on_grid else {}),
                "line": list(rule.line),
                "window_start": rule.window_start,
                "added": [format_multidegree(p) for p in rule.added],
            })
            for rule in state.trace
        ]
        assert list(map(json.dumps, cli._trace_docs(state))) == want


def orbit_points(reps):
    return sorted({p for r in reps for p in lattice.orbit_of(r).elements})


def points_doc(k, points):
    return json.dumps({"k": k, "points": [format_multidegree(p) for p in points]})


def run_closure(seed_text, *argv, engine=saturation.close_seed):
    """`closure` on a seed file holding seed_text: (rc, stdout, stderr).

    engine(seed, n, k, margin) stands in for close_seed; close_cube closes
    on the grid alone, in the requested box.
    """
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as directory, mock.patch.object(cli, "close_seed", engine):
        path = Path(directory, "seed.json")
        path.write_text(seed_text, encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["closure", "--seed-file", str(path), *argv])
    return rc, out.getvalue(), err.getvalue()


def xk1_without_weight(k, weight):
    """The seed of xk1(k) with the weight-`weight` orbit dropped from its first block."""
    first, second = lefschetz.xk1(k).blocks
    points = [p for p in first.bundles() if sum(p) != weight]
    return points + [lattice.twist(p, 1) for p in second.bundles()]


@st.composite
def stable_seeds(draw):
    """Whole orbits of a random share of the reps of a k = 2..5 box, n <= 2, margin <= n+1."""
    k, n = draw(st.integers(2, 5)), draw(st.integers(1, 2))
    margin = draw(st.integers(0, n + 1))
    box = range(n + margin, -margin - 1, -1)
    share, rng = draw(st.floats(0.05, 0.9)), draw(st.randoms(use_true_random=False))
    reps = [r for r in itertools.combinations_with_replacement(box, k) if rng.random() < share]
    return orbit_points(reps), n, k, margin


def least_grid_margin(seed, n, k, margin):
    """The least margin up to `margin` at which close_cube covers the cube, or None."""
    covering = (
        m
        for m in range(margin + 1)
        if not saturation.close_cube(seed, n, k, m, drop_outside=True)[1]
    )
    return next(covering, None)


@settings(max_examples=40, deadline=None)
@given(stable_seeds())
def test_stable_closures_on_orbit_reps_answer_as_the_grid(case):
    seed, n, k, margin = case
    text, argv = points_doc(k, seed), ["--n", str(n), "--margin", str(margin)]
    least = least_grid_margin(seed, n, k, margin)
    box = lattice.Box(lo=-margin, hi=n + margin, k=k)

    def least_grid(seed, n, k, margin):
        return saturation.close_cube(seed, n, k, least, drop_outside=True)

    wants = {
        fmt: run_closure(text, *argv, "--format", fmt, engine=saturation.close_cube)
        for fmt in ("text", "json")
    }
    # routed, then with every k <= 3 closure on the grid
    for limit in (lattice.REPS_MAX_CELLS, 0) if k < 4 else (lattice.REPS_MAX_CELLS,):
        with mock.patch.object(lattice, "REPS_MAX_CELLS", limit):
            reps = lattice.on_reps(k, box.size)
            answers = {fmt: run_closure(text, *argv, "--format", fmt) for fmt in ("text", "json")}
        assert reps == (limit > 0)
        for fmt, got in answers.items():
            want = wants[fmt]
            assert got[0] == want[0] and got[0] in (0, 3)
            assert (got[0] == 0) == (least is not None)
            if got[0] == 0:
                # a FULL closure writes, byte for byte, the grid certificate of the least
                # box whose grid covers the cube when it runs on reps, of the requested
                # box otherwise; either way with the requested margin and box
                grid = least_grid if reps else saturation.close_cube
                assert got == run_closure(text, *argv, "--format", fmt, engine=grid)
                if fmt == "json":
                    doc = json.loads(got[1])
                    assert (doc["margin"], doc["box_size"]) == (margin, box.size)
                    trace = rule_applications(doc["trace"], k)
                    replayed = saturation.replay_trace(seed, n, box, trace)
                    assert doc["members"] == len(replayed)
                    assert set(lattice.Box(lo=0, hi=n, k=k).points()) <= replayed
            elif fmt == "text":
                fields = [
                    dict(line.split(": ", 1) for line in out.splitlines())
                    for _, out, _ in (got, want)
                ]
                for key in ("status", "members", "missing"):
                    assert fields[0][key] == fields[1][key]
                engine = saturation.close_orbits if reps else saturation.close_cube
                trace_length = engine(seed, n, k, margin)[0].trace_length
                assert fields[0]["trace entries"] == str(trace_length)
            else:
                docs = [json.loads(out) for _, out, _ in (got, want)]
                for key in ("status", "margin", "members", "box_size", "missing_sample"):
                    assert docs[0][key] == docs[1][key]


def test_orbit_trace_out_replays_to_the_members_it_counts(tmp_path):
    k, n, margin = 6, 1, 2
    seed = xk1_without_weight(k, 1)
    trace_path = tmp_path / "trace.jsonl"
    rc, out, _ = run_closure(
        points_doc(k, seed), "--n", str(n), "--margin", str(margin), "--trace-out", str(trace_path)
    )
    assert rc == 3
    fields = dict(line.split(": ", 1) for line in out.splitlines())
    docs = list(map(json.loads, trace_path.read_text().splitlines()))
    assert docs and all(set(doc) == {"line", "window_start", "added"} for doc in docs)
    rules = orbit_rules(docs, k)
    assert fields["trace entries"] == str(len(rules))
    box = lattice.Box(lo=-margin, hi=n + margin, k=k)
    members = saturation.replay_orbit_trace(seed, n, box, rules)
    assert fields["members"] == f"{sum(lattice.orbit_of(r).size for r in members)} of {box.size}"
    state, _ = saturation.close_cube(seed, n, k, margin)
    assert {lattice.canonical_rep(p) for p in state.members} == members


def test_closures_of_unstable_k4_seeds_stay_on_the_grid(tmp_path):
    seed = orbit_points([(1, 0, 0, 0), (1, 1, 0, 0)])[1:]  # one point short of two orbits
    trace_path = tmp_path / "trace.jsonl"
    rc, out, _ = run_closure(points_doc(4, seed), "--n", "1", "--trace-out", str(trace_path))
    assert rc == 3
    state, _ = saturation.close_cube(seed, 1, 4)
    assert read_trace(trace_path, 4) == state.trace
    assert f"trace entries: {state.trace_length}" in out


def test_stable_closure_refusals_are_the_grids(tmp_path):
    seed = points_doc(4, orbit_points([(1, 0, 0, 0), (1, 1, 0, 0), (5, 0, 0, 0)]))
    inside = points_doc(4, orbit_points([(1, 0, 0, 0), (1, 1, 0, 0)]))
    for text, argv in (
        (seed, ["--n", "1", "--margin", "2"]),  # (5,0,0,0) is outside the box
        (inside, ["--n", "1", "--margin", "-1"]),
        (inside, ["--n", "0"]),
        (inside, ["--n", "-1"]),
        (inside.replace('"(1,0,0,0)"', '"(1,0,0)"'), ["--n", "1"]),
    ):
        got = run_closure(text, *argv)
        assert got == run_closure(text, *argv, engine=saturation.close_cube)
        assert got[0] == 2 and got[1] == "" and got[2].startswith("error: ")


def test_stable_closure_beyond_the_grid_limit_exits_3():
    # the grid box, 6^12 cells, is refused; its 6,188 orbit lines are not
    k, n, margin = 12, 1, 2
    assert lattice.Box(lo=-margin, hi=n + margin, k=k).size > saturation.MAX_BOX_CELLS
    rc, out, err = run_closure(
        points_doc(k, xk1_without_weight(k, 4)), "--n", str(n), "--margin", str(margin)
    )
    assert (rc, err) == (3, "")
    assert "status: INCONCLUSIVE" in out


def test_full_stable_closure_beyond_the_grid_limit_certifies_in_a_smaller_box(tmp_path):
    # the requested box, 6^12 cells, is refused by the grid; [-1, 2]^12 covers the cube
    k, n = 12, 1
    seed, box = lefschetz.flatten_bundles(lefschetz.xk1(k)), lattice.Box(lo=-2, hi=3, k=k)
    assert box.size > saturation.MAX_BOX_CELLS
    trace_path = tmp_path / "trace.jsonl"
    rc, out, err = run_closure(points_doc(k, seed), "--n", str(n), "--trace-out", str(trace_path))
    assert (rc, err) == (0, "")
    fields = dict(line.split(": ", 1) for line in out.splitlines())
    trace = read_trace(trace_path, k)
    assert fields["trace entries"] == str(len(trace))
    replayed = saturation.replay_trace(seed, n, box, trace)
    assert fields["members"] == f"{len(replayed)} of {box.size}"
    assert replayed.issuperset(lattice.Box(lo=0, hi=n, k=k).points())


def test_full_stable_closure_refuses_a_least_box_above_the_grid_limit():
    k, n = 15, 1
    seed, least = lefschetz.flatten_bundles(lefschetz.xk1(k)), lattice.Box(lo=-1, hi=2, k=k)
    assert least.size > saturation.MAX_BOX_CELLS
    # margin 0 does not cover the cube, so [-1, 2]^15 is the least box that does
    assert saturation.close_orbits(seed, n, k, 0, drop_outside=True)[1]
    rc, out, err = run_closure(points_doc(k, seed), "--n", str(n))
    assert (rc, out) == (2, "")
    assert err == (
        f"error: box [-1, 2]^15 has {least.size} cells, more than the limit of "
        f"{saturation.MAX_BOX_CELLS}; it is the least box whose closure covers [0, 1]^15\n"
    )


def test_full_stable_closure_counts_seed_points_outside_its_least_box():
    k, n, margin = 4, 1, 2
    seed = list(lefschetz.flatten_bundles(lefschetz.xk1(k))) + [(3, 3, 3, 3)]
    box = lattice.Box(lo=-margin, hi=n + margin, k=k)
    assert least_grid_margin(seed, n, k, margin) == 1  # (3,3,3,3) lies outside [-1, 2]^4
    rc, out, _ = run_closure(points_doc(k, seed), "--n", str(n), "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    cert, _ = saturation.close_cube(seed, n, k, 1, drop_outside=True)
    cert = cert.certificate(lattice.Box(lo=0, hi=n, k=k))
    assert (doc["margin"], doc["box_size"]) == (margin, box.size)
    assert doc["members"] == cert.member_count + 1
    replayed = saturation.replay_trace(seed, n, box, rule_applications(doc["trace"], k))
    assert doc["members"] == len(replayed) and (3, 3, 3, 3) in replayed


def test_benchmark_certificate_keeps_its_bytes(capsys, tmp_path):
    # the xk1(9) certificate the benchmark renders, byte for byte
    seed_path, trace_path = tmp_path / "xk1_9.json", tmp_path / "trace.jsonl"
    seed_path.write_text(collection_to_json(lefschetz.xk1(9)), encoding="utf-8")
    argv = ("closure", "--seed-file", str(seed_path), "--trace-out", str(trace_path))
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert "members: 1349 of 10077696\n" in out and "trace entries: 837\n" in out
    body = trace_path.read_bytes()
    assert (body.count(b"\n"), len(body)) == (837, 82863)
    assert hashlib.sha256(body).hexdigest() == (
        "cc94cb857c84f7603731d2b404d10d65782cbf2cfafeea87c7b0efd6bb294be7"
    )
    rc, out, _ = run(capsys, *argv, "--format", "json")
    assert rc == 0
    assert json.loads(out)["trace"] == list(map(json.loads, body.decode().splitlines()))


def test_deeply_nested_json_is_an_input_error(tmp_path):
    # the decoder's RecursionError is a usage error, not a failed check
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    src = str(Path(lefkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    for argv in (["verify", "--collection", str(path)], ["closure", "--seed-file", str(path)]):
        proc = subprocess.run(
            [sys.executable, "-m", "lefkit", *argv], capture_output=True, text=True, env=env
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_nested_coordinates_past_the_twist_kernel_bound_are_an_input_error(capsys, tmp_path):
    # (2^60, 0) spans more than n, and is refused by the twist kernel like any
    # nested rep holding such a coordinate, not answered as a failed check
    path = tmp_path / "coll.json"
    for rep in ("(1152921504606846976,0)", "(1152921504606846976,1152921504606846976)"):
        path.write_text(json.dumps({"schema": "lefkit/1", "k": 2, "n": 1, "blocks": [[rep]]}))
        rc, out, err = run(capsys, "verify", "--collection", str(path))
        assert (rc, out) == (2, "")
        assert err == "error: coordinates and n must lie strictly between -2^60 and 2^60\n"


def test_closure_inconclusive_exits_3(capsys, tmp_path):
    seed_path = tmp_path / "seed.json"
    seed_path.write_text(json.dumps({"k": 2, "points": ["(0,0)"]}))
    rc, out, _ = run(capsys, "closure", "--seed-file", str(seed_path), "--n", "1")
    assert rc == 3
    assert "status: INCONCLUSIVE" in out


def test_closure_seed_is_read_as_seed_file(capsys, tmp_path):
    # --seed reads as --seed-file, as its argparse prefix
    seed_path = tmp_path / "seed.json"
    for points, rc in ((["(0,0)"], 3), (["(0,0)", "(1,0)", "(0,1)", "(1,1)"], 0)):
        seed_path.write_text(json.dumps({"k": 2, "points": points}))
        for argv in (["--n", "1"], ["--n", "1", "--format", "json"]):
            got = run(capsys, "closure", "--seed", str(seed_path), *argv)
            assert got == run(capsys, "closure", "--seed-file", str(seed_path), *argv)
            assert got[0] == rc


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


def test_a_large_malformed_value_is_echoed_cut_short(capsys, tmp_path):
    big = list(range(200_000))
    seed, coll = tmp_path / "seed.json", tmp_path / "coll.json"
    seed.write_text(json.dumps({"k": big, "points": ["(0,0)"]}))
    coll.write_text(json.dumps({"schema": "lefkit/1", "k": big, "n": 1, "blocks": [["(0,0)"]]}))
    for argv in (
        ("closure", "--seed-file", str(seed), "--n", "1"),
        ("verify", "--collection", str(coll)),
    ):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert "k must be an integer, got [0, 1, 2, 3," in err and len(err.encode()) < 300


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
    # from k = 4 on a nested collection is decided on reps: C(40, 20) bundles are
    # counted, never listed, and are not the 2^40 that generating needs
    rc, out, err = run(capsys, "verify", "--collection", str(path))
    assert (rc, err) == (1, "")
    assert "exceptional: ok\n" in out
    assert f"fullness: NOT_FULL_BY_RANK ({comb(40, 20)} bundles, expected {2 ** 40})\n" in out


def test_a_k_20_search_pool_is_sized_by_its_twist_table_alone(capsys, monkeypatch):
    # 210 pool orbits of 3.5e9 bundles, none listed: the first candidate is a certified hit
    def boom(values):
        raise AssertionError("orbit elements generated")

    monkeypatch.setattr(lattice, "_multiset_permutations", boom)
    rc, out, err = run(capsys, "search", "--k", "20", "--n", "1", "--target", "minimal",
                       "--budget", "1")
    assert (rc, err) == (3, "")
    hit, summary = out.splitlines()
    assert hit.startswith("hit ranks=(616666, 431910) blocks (0,0,")
    assert summary == "hits: 1, inconclusive: 0, nodes: 1, exhausted: no"


def test_oversized_flattened_collection_refused_before_flattening(capsys, monkeypatch):
    # each block of E(3, 300) is within the orbit limit; its 301 copies are not
    def boom(coll, i):
        raise AssertionError("collection flattened before the size check")

    monkeypatch.setattr(lefschetz, "twist", boom)
    rc, out, err = run(capsys, "verify", "--builtin", "x3n-rectangular", "--n", "300")
    assert (rc, out) == (2, "")
    assert err == "error: S_k-stable set of 27270901 bundles is more than the limit of 4194304\n"


def test_the_flattened_pre_size_follows_the_router(capsys, monkeypatch):
    # a collection is sized as flattened only where its fullness closes on the grid, which
    # lists every bundle: x32-minimal's box of 9^3 cells closes on reps, x3n(9)'s 30^3 not
    unpatched = run(capsys, "verify", "--builtin", "x32-minimal")
    assert unpatched[0] == 0 and sum(lefschetz.ranks(x32_minimal())) > 10
    monkeypatch.setattr(lattice, "MAX_ORBIT_BUNDLES", 10)
    assert run(capsys, "verify", "--builtin", "x32-minimal") == unpatched
    bundles = sum(lefschetz.ranks(lefschetz.x3n_rectangular(9)))
    rc, out, err = run(capsys, "verify", "--builtin", "x3n-rectangular", "--n", "9")
    assert (rc, out) == (2, "")
    assert err == f"error: S_k-stable set of {bundles} bundles is more than the limit of 10\n"


def test_oversized_search_pools_refused_before_drawing_reps(capsys, monkeypatch):
    # the pool is every point of [0, n+1]^k with a zero coordinate
    def boom(k, hi):
        raise AssertionError("pool reps drawn before the size check")

    monkeypatch.setattr(explorer, "normalised_reps", boom)
    # only the table of one cell per pair of pool orbits is sized, at every k
    for k, n, target in (
        (3, 1200, "minimal"),
        (2, 2 ** 21, "rectangular"),
        (14, 14, "rectangular"),
        (12, 12, "minimal"),
    ):
        rc, out, err = run(capsys, "search", "--k", str(k), "--n", str(n), "--target", target)
        assert (rc, out) == (2, ""), target
        orbits = comb(n + k, k - 1)
        assert err == (f"error: twist table of {orbits} x {orbits} cells is more than the "
                       "limit of 4194304\n")


def test_collections_built_and_dumped_from_reps_alone(capsys, monkeypatch):
    def boom(values):
        raise AssertionError("orbit elements generated")

    monkeypatch.setattr(lattice, "_multiset_permutations", boom)
    coll, half = lefschetz.xk1(30), comb(30, 15)
    assert lefschetz.ranks(coll) == ((2 ** 30 + half) // 2, (2 ** 30 - half) // 2)
    rc, out, err = run(capsys, "verify", "--builtin", "xk1", "--k", "30", "--dump")
    assert (rc, err) == (0, "")
    assert collection_from_json(out) == coll
    # exceptionality and fullness are decided on reps too
    rc, out, err = run(capsys, "verify", "--builtin", "xk1", "--k", "30")
    assert (rc, err) == (0, "")
    assert "exceptional: ok\n" in out and "fullness: FULL (margin 2, trace length 20153)\n" in out


def test_verify_builds_only_the_violations_it_shows(capsys, tmp_path, monkeypatch):
    # every block holds every rep of [0, n]^3: most later-to-earlier pairs fail
    n, graded = 3, []
    blocks = [[format_multidegree(r) for r in lattice.normalised_reps(3, n)]] * (n + 1)
    doc = {"schema": "lefkit/1", "k": 3, "n": n, "blocks": blocks}
    path = tmp_path / "coll.json"
    path.write_text(json.dumps(doc))
    want = lefschetz.check_exceptional(collection_from_json(doc))
    assert len(want) > 20
    monkeypatch.setattr(lefschetz, "ext_graded", lambda *a: graded.append(a) or ext_graded(*a))
    rc, out, _ = run(capsys, "verify", "--collection", str(path), "--format", "json")
    assert (rc, len(graded)) == (1, sum(v.kind == "ext" for v in want[:20]))
    assert json.loads(out)["exceptional_violations"] == [
        {"kind": v.kind, "witness": [format_multidegree(w) for w in v.witness],
         "detail": list(v.detail)}
        for v in want[:20]
    ]
    rc, out, _ = run(capsys, "verify", "--collection", str(path))
    first = want[0]
    assert rc == 1
    assert (f"exceptional: {len(want)} violations\n  first: {first.kind} "
            f"{format_multidegree(first.witness[0])} -> {format_multidegree(first.witness[1])}\n"
            in out)


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


def test_chain_combinations_drawn_lazily_under_budget(capsys, monkeypatch):
    # minimal (3, 6) has 9,667,903 chain combinations; none is counted or sorted
    def boom(*args, **kwargs):
        raise AssertionError("sorted called in the search")

    drawn, pushes = [], []

    def counted_chains(*args):
        for chain in reptheory.decreasing_tuples(*args):
            drawn.append(chain)
            yield chain

    monkeypatch.setattr(explorer, "sorted", boom, raising=False)
    monkeypatch.setattr(explorer, "decreasing_tuples", counted_chains)
    monkeypatch.setattr(explorer, "heapq", SimpleNamespace(
        heappush=lambda heap, item: pushes.append(item) or heapq.heappush(heap, item),
        heappop=heapq.heappop,
    ))
    rc, out, err = run(capsys, "search", "--k", "3", "--n", "6", "--target", "minimal",
                       "--budget", "1")
    assert (rc, err) == (3, "")
    assert out.startswith("hit ranks=(49, 49, 49, 49, 49, 49, 49) ")
    assert out.endswith("nodes: 1, exhausted: no\n")
    # the first combination, one chain of each of the 3 shapes
    assert (len(drawn), len(pushes)) == (3, 1)


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


@pytest.mark.parametrize(
    "argv, summary",
    [
        # at margin 0 the known (13,7,7) chain is inconclusive, so the one hit
        # found, (19,7,1), is no certified minimum even though the pool is exhausted
        (("--k", "3", "--n", "2", "--target", "minimal", "--margin", "0"),
         "hits: 1, inconclusive: 3, nodes: 1008, exhausted: yes"),
        # the unpruned walk over 1,501 pool orbits stops at the budget; a generator
        # that recursed once per pool orbit raised RecursionError here
        (("--k", "2", "--n", "3", "--target", "rectangular", "--no-prune",
          "--pool-hi", "1500", "--budget", "5"),
         "hits: 0, inconclusive: 0, nodes: 5, exhausted: no"),
    ],
    ids=["inconclusive-candidates", "budget-runs-out"],
)
def test_search_exits_3(capsys, argv, summary):
    rc, out, err = run(capsys, "search", *argv)
    assert (rc, err) == (3, "")
    assert out.splitlines()[-1] == summary


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
