"""Start-up contract: importing lefkit, or any of its modules, loads no numpy;
each public name loads its submodule on first access, numpy loads with its
OpenBLAS on one thread when an array kernel first needs it (the array form
of a k <= 3 twist table of more than lattice.REPS_MAX_CELLS rows times its
orbits' bundles, a k <= 3 fullness closure of a box above that many cells,
the grid closure of `lefkit closure` behind a FULL certificate and for any seed
not decided on reps, the witness scans), and the caller's environment is left
as it was.  From k = 4 on, verdicts on nested collections and S_k-stable seeds,
and the theorem's semiorthogonality grid, run on orbit reps and load no numpy
at all; so do k <= 3 verdicts, searches and INCONCLUSIVE closures of S_k-stable
seeds on inputs within that size.

Each case runs in a fresh interpreter, because pytest has already imported
numpy in this one, and OpenBLAS reads its thread count only when it loads.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lefkit
from lefkit import lattice, lefschetz, saturation

SRC = Path(__file__).resolve().parent.parent / "src"

WATCHED = ("numpy", "numpy.ma", "lefkit.saturation", "lefkit.explorer")

PROBE = """
import json, os, sys
{code}
tasks = "/proc/self/task"
report = {{
    "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
    "blas": os.environ.get("OPENBLAS_NUM_THREADS"),
    "loaded": [m for m in {watched!r} if m in sys.modules],
}}
print(json.dumps(report))
"""

# what each case runs in its interpreter, and whether numpy is loaded after it
CASES = {
    "lefkit": ("import lefkit", False),
    "lefkit.cli": ("import lefkit.cli", False),
    "lefkit.saturation": ("import lefkit.saturation", False),
    "lefkit.explorer": ("import lefkit.explorer", False),
    # a B_0 table of 176 rows x 961 bundles, above lattice.REPS_MAX_CELLS
    "lefkit-kernel": ("import lefkit; lefkit.is_exceptional(lefkit.x3n_rectangular(30))", True),
}


def probe(code, **env):
    """Run `code` in a fresh interpreter whose environment has no
    OPENBLAS_NUM_THREADS except as given; return what it reports."""
    child = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), child.get("PYTHONPATH")]))
    child.update(env)
    out = subprocess.run(
        [sys.executable, "-c", PROBE.format(code=code, watched=WATCHED)],
        env=child,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_import_and_builders_load_no_numpy():
    code = "\n".join([
        "import lefkit",
        "lefkit.collection_to_json(lefkit.xk1(9))",
        "lefkit.format_multidegree(lefkit.twist((0, 1), 2))",
        "lefkit.invariant_bound(2, 3)",
    ])
    assert probe(code)["loaded"] == []


@pytest.mark.parametrize("case", CASES)
def test_import_leaves_one_thread_and_no_variable(case):
    code, numpy_loaded = CASES[case]
    report = probe(code)
    assert ("numpy" in report["loaded"]) == numpy_loaded
    assert report["blas"] is None
    if report["threads"] is None:
        pytest.skip("no /proc/self/task to count threads")
    assert report["threads"] == 1


@pytest.mark.parametrize("case", CASES)
def test_a_callers_thread_count_is_kept(case):
    assert probe(CASES[case][0], OPENBLAS_NUM_THREADS="2")["blas"] == "2"


def run_cli(rc, *argv):
    """Probe code running `lefkit` with argv and checking that it exits with rc."""
    return f"from lefkit import cli\nassert cli.main({list(argv)!r}) == {rc}"


def test_a_fullness_check_leaves_numpy_ma_unloaded():
    # x3n(13) closes on the grid: its box of 42^3 cells is above lattice.REPS_MAX_CELLS
    report = probe(run_cli(0, "verify", "--builtin", "x3n-rectangular", "--n", "13"))
    assert "numpy" in report["loaded"] and "numpy.ma" not in report["loaded"]


def test_verdicts_from_k_4_on_load_no_numpy(tmp_path):
    # the seed holds whole S_8-orbits but too few points to generate
    seed = tmp_path / "seed.json"
    seed.write_text(json.dumps({"k": 8, "points": ["(0,0,0,0,0,0,0,0)", "(1,1,1,1,1,1,1,1)"]}))
    for code in (
        run_cli(0, "verify", "--builtin", "xk1", "--k", "7"),
        run_cli(3, "closure", "--seed-file", str(seed), "--n", "1"),  # INCONCLUSIVE
        run_cli(0, "search", "--k", "7", "--n", "1", "--target", "rectangular"),
    ):
        assert probe(code)["loaded"] == ["lefkit.saturation", "lefkit.explorer"], code


def test_small_k_3_verdicts_and_searches_load_no_numpy():
    # twist tables of at most 915 cells and closure boxes of at most 24^3
    for code in (
        run_cli(0, "search", "--k", "3", "--n", "2", "--target", "minimal"),
        run_cli(0, "search", "--k", "3", "--n", "2", "--target", "minimal", "--pool-hi", "4"),
        run_cli(0, "search", "--k", "2", "--n", "5", "--target", "minimal"),
        run_cli(0, "search", "--k", "3", "--n", "3", "--target", "rectangular"),
        run_cli(0, "search", "--k", "3", "--n", "2", "--target", "rectangular", "--no-prune"),
        run_cli(3, "verify", "--builtin", "x32-minimal", "--margin", "0"),  # INCONCLUSIVE
        run_cli(0, "verify", "--builtin", "x3n-rectangular", "--n", "7"),
    ):
        assert probe(code)["loaded"] == ["lefkit.saturation", "lefkit.explorer"], code


def test_a_small_k_3_closure_loads_no_numpy(tmp_path):
    # four whole S_3-orbits that do not generate, closed on reps in a box of 6^3 cells
    seed = tmp_path / "seed.json"
    seed.write_text(json.dumps({"k": 3, "points": ["(0,0,0)", "(1,0,0)", "(0,1,0)", "(0,0,1)"]}))
    code = run_cli(3, "closure", "--seed-file", str(seed), "--n", "1")  # INCONCLUSIVE
    assert probe(code)["loaded"] == ["lefkit.saturation", "lefkit.explorer"]


def test_a_refused_full_closure_loads_no_numpy(tmp_path):
    # xk1(16) covers the cube from margin 1 on, and [-1, 2]^16 is above MAX_BOX_CELLS
    seed = tmp_path / "xk1_16.json"
    seed.write_text(lefschetz.collection_to_json(lefschetz.xk1(16)), encoding="utf-8")
    code = run_cli(2, "closure", "--seed-file", str(seed))
    assert probe(code)["loaded"] == ["lefkit.saturation", "lefkit.explorer"]


def test_the_theorem_grid_from_k_4_on_loads_no_numpy():
    code = "import lefkit\nassert lefkit.check_theorem_semiorthogonality(4, 6) is None"
    assert probe(code)["loaded"] == []


def test_replaying_a_certificate_loads_no_numpy():
    seed = lefschetz.flatten_bundles(lefschetz.xk1(3))
    state, missing = saturation.close_cube(seed, 1, 3)
    assert not missing
    trace = state.certificate(lattice.Box(lo=0, hi=1, k=3)).trace
    code = "\n".join([
        "from lefkit import Box, RuleApplication, replay_trace",
        f"members = replay_trace({seed!r}, 1, Box(lo=-2, hi=3, k=3), {trace!r})",
        "assert all(p in members for p in Box(lo=0, hi=1, k=3).points())",
    ])
    assert probe(code)["loaded"] == ["lefkit.saturation"]


# the public names as the package exported them eagerly, by defining submodule
EXPORTS = {
    "lattice": """Box Multidegree Orbit OrbitSet canonical_rep format_multidegree orbit_of
        orbit_set parse_multidegree stabilizer_shape twist""".split(),
    "ext": "GradedDims ext_graded is_orthogonal_pair line_cohomology".split(),
    "lefschetz": """LefschetzCollection Violation adjust build_E build_Ehat check_exceptional
        check_lefschetz check_theorem_semiorthogonality collection_from_json
        collection_to_json flatten_bundles is_exceptional is_rectangular ranks
        staircase_rectangular x32_minimal x32_rectangular_part x32_residual x3n_rectangular
        xk1""".split(),
    "saturation": """FULL INCONCLUSIVE NOT_FULL_BY_RANK ClosureState OrbitClosureState
        OrbitRule RuleApplication Verdict close close_cube close_orbits expand_orbit_trace
        replay_orbit_trace replay_trace residual_check verify_fullness""".split(),
    "reptheory": """Partition SchurWeylTable content_orbit_count count_partitions dim_irrep
        dim_schur divisibility_criterion equivariant_lengths hook_lengths invariant_bound
        kostka lef_bounds partitions_of partitions_rho perm_module_dim schur_weyl_table
        transpose""".split(),
    "explorer": "SearchResult SearchSpec search_minimal search_rectangular".split(),
}


def test_every_export_is_its_submodules_object():
    assert sorted(lefkit.__all__) == sorted(sum(EXPORTS.values(), []))
    assert len(lefkit.__all__) == 72
    for module, names in EXPORTS.items():
        sub = importlib.import_module(f"lefkit.{module}")
        for name in names:
            assert getattr(lefkit, name) is getattr(sub, name), name
    star = {}
    exec("from lefkit import *", star)
    assert star.keys() - {"__builtins__"} == set(lefkit.__all__)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        lefkit.no_such_name


def test_a_fresh_import_lists_the_exports_and_resolves_the_submodules():
    code = "\n".join([
        "import lefkit",
        "assert set(lefkit.__all__) <= set(dir(lefkit))",
        f"for m in {list(EXPORTS)!r}:",
        "    assert getattr(lefkit, m) is sys.modules['lefkit.' + m]",
    ])
    assert "lefkit.explorer" in probe(code)["loaded"]
