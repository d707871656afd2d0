import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orientlab import gen_benchmark, gen_random, parse_instance, serialize_instance
from orientlab.cli import main


def run_main(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestGenerate:
    def test_generate_roundtrips(self, tmp_path, capsys):
        path = tmp_path / "fork.json"
        code, _, _ = run_main(["generate", "fork", "--eps", "0.01", "-o", str(path)], capsys)
        assert code == 0
        inst = parse_instance(path.read_text())
        assert parse_instance(serialize_instance(inst)) == inst
        assert len(inst.vertices) == 3

    def test_generate_staircase_size(self, tmp_path, capsys):
        path = tmp_path / "ts.json"
        code, _, _ = run_main(["generate", "staircase", "--n", "1024", "-o", str(path)], capsys)
        assert code == 0
        inst = parse_instance(path.read_text())
        assert len(inst.vertices) == 1024
        assert len(inst.hyperedges) == 1

    def test_unknown_generator_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "not-a-thing"])
        assert exc.value.code == 1

    def test_bad_parameter_validation_error(self, capsys):
        code, _, err = run_main(["generate", "fork", "--eps", "2.0"], capsys)
        assert code == 2
        assert "eps" in err

    def test_generate_to_stdout(self, capsys):
        code, out, _ = run_main(["generate", "overlap-pair", "--p", "0.3", "--q", "0.5"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert {v["id"] for v in doc["vertices"]} == {"v0", "v1"}


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["run", "--gen", "star-trap", "--eps", "0.02"],
            "--eps does not apply to star-trap, which takes --gen-d, --n, --eta",
        ),
        (
            ["run", "--gen", "staircase", "--eps", "0.02"],
            "--eps does not apply to staircase, which takes --n",
        ),
        (["run", "--gen", "fork", "--n", "3"], "--n does not apply to fork, which takes --eps"),
        (["generate", "fork", "--n", "3"], "--n does not apply to fork, which takes --eps"),
    ],
)
def test_generator_flag_the_generator_does_not_take_exits_2(argv, message, capsys):
    code, out, err = run_main(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == f"orientlab: {message}\n"


class TestRun:
    def test_run_three_algorithms(self, tmp_path, capsys):
        path = tmp_path / "fork.json"
        run_main(["generate", "fork", "--eps", "0.01", "-o", str(path)], capsys)
        code, out, _ = run_main(
            ["run", "--instance", str(path), "--samples", "4000", "--seed", "7"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4  # header + threshold + bestvc + baseline
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            assert abs(float(row["mean_opt"]) - 1.51) < 0.03
        assert lines[1].split(",")[1].startswith("threshold")

    def test_readme_run_commands_print_pinned_bytes(self, tmp_path, capsys):
        """The three ``orientlab run`` commands of the README print the
        bytes stored in ``data/readme_run.csv``.  A change that alters a
        sampling stream on purpose updates that file and says so."""
        path = tmp_path / "fork.json"
        run_main(["generate", "fork", "--eps", "0.01", "-o", str(path)], capsys)
        commands = [
            ["--instance", str(path)],
            ["--gen", "overlap-pair", "--p", "0.41421356", "--q", "0.41421356", "-a", "bestvc"],
            ["--gen", "fork", "--eps", "0.001", "-a", "threshold", "--alpha", "1", "--d", "auto",
             "-a", "baseline"],
        ]
        printed = ""
        for source in commands:
            code, out, _ = run_main(["run", *source, "--samples", "100000", "--seed", "7"], capsys)
            assert code == 0
            printed += out
        assert printed.encode() == (Path(__file__).parent / "data" / "readme_run.csv").read_bytes()

    def test_sampled_planning_and_odd_block_runs_print_pinned_bytes(self, tmp_path, capsys):
        """Two more ``run`` commands pinned to bytes made by an earlier
        commit: sampled planning on a weighted hypergraph with a 4-row
        bootstrap, and a weighted gnp whose 777 bootstrap blocks divide
        no gather or draw chunk."""
        data = Path(__file__).parent / "data"
        hyper = gen_random("hypergraph", 11, n=12, m=5, max_size=4, unit_cost=False)
        cases = [
            ("hyper", hyper, "hyper_sampled_run.csv",
             ["-a", "threshold-hyper", "-a", "bestvc", "-a", "baseline", "--eps", "0.02",
              "--samples", "4000"]),
            ("gnp", gen_random("gnp", 5, n=16, p=0.3, unit_cost=False), "gnp_777_run.csv",
             ["--samples", "777"]),
        ]
        for stem, instance, pinned, args in cases:
            path = tmp_path / f"{stem}.json"
            path.write_text(serialize_instance(instance))
            code, out, _ = run_main(["run", "--instance", str(path), *args, "--seed", "7"], capsys)
            assert code == 0
            assert out.encode() == (data / pinned).read_bytes()

    def test_graph_sampled_planning_runs_print_pinned_bytes(self, tmp_path, capsys):
        """threshold-hyper samples its profile on graphs too, the one graph
        path that does; bytes made by an earlier commit.  On the 8-leaf
        star-trap the leaves' probability sits just below the threshold,
        so the sampled estimates decide the stage-1 set."""
        path = tmp_path / "star.json"
        path.write_text(serialize_instance(gen_benchmark("star-trap", n=8)))
        commands = [
            ["--gen", "fork", "-a", "threshold-hyper", "-a", "bestvc", "--eps", "0.02"],
            ["--instance", str(path), "-a", "threshold-hyper", "-a", "threshold", "-a", "bestvc",
             "--eps", "0.02", "--samples", "2000"],
        ]
        printed = ""
        for source in commands:
            code, out, _ = run_main(["run", *source, "--seed", "7"], capsys)
            assert code == 0
            printed += out
        pinned = Path(__file__).parent / "data" / "graph_sampled_run.csv"
        assert printed.encode() == pinned.read_bytes()

    @pytest.mark.parametrize("delta", ["1.5", "1", "0", "-0.5"])
    def test_threshold_hyper_delta_outside_unit_interval_exits_2(self, delta, capsys):
        code, out, err = run_main(
            ["run", "--gen", "fork", "-a", "threshold-hyper", "--delta", delta, "--samples", "100"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == "orientlab: epsilon and delta must lie in (0, 1)\n"

    def test_seed_makes_output_byte_identical(self, capsys):
        args = [
            "run", "--gen", "overlap-pair", "--p", "0.3", "--q", "0.5",
            "--samples", "2000", "--seed", "9", "-a", "bestvc", "-a", "baseline",
        ]
        code1, out1, _ = run_main(args, capsys)
        code2, out2, _ = run_main(args, capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_threads_do_not_change_bytes(self, tmp_path, capsys):
        path = tmp_path / "hyper.json"
        path.write_text(serialize_instance(gen_random("hypergraph", 5, n=8, m=4, unit_cost=False)))
        sources = [
            ["--gen", "fork", "--eps", "0.01"],  # the three default algorithms
            ["--instance", str(path), "-a", "threshold-hyper", "-a", "bestvc", "-a", "baseline"],
        ]
        for source in sources:
            base = ["run", *source, "--samples", "400", "--seed", "3"]
            code1, out1, _ = run_main(base + ["--threads", "1"], capsys)
            code2, out2, _ = run_main(base + ["--threads", "2"], capsys)
            assert code1 == code2 == 0
            assert len(out1.strip().splitlines()) == 4
            assert out1 == out2

    def test_leaves_first_on_several_hyperedges_fails_before_sampling(self, monkeypatch, capsys):
        from orientlab import harness

        def never(*args):
            raise AssertionError("sampled before the plan was checked")

        monkeypatch.setattr(harness, "_BlockSampler", never)
        code, out, err = run_main(
            ["run", "--gen", "fork", "-a", "leaves-first", "--samples", "100"], capsys
        )
        assert code == 2
        assert out == ""
        assert err == "orientlab: leaves-first policy is defined for a single hyperedge\n"

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run_main(["run", "--samples", "10"], capsys)
        assert code == 2
        assert "exactly one" in err

    def test_gen_with_trap_threshold(self, capsys):
        code, out, _ = run_main(
            [
                "run", "--gen", "edge-trap", "--gen-d", "0.6", "--eps", "0.01",
                "--samples", "3000", "--seed", "5", "-a", "threshold",
                "--d", "0.6", "--alpha", "1",
            ],
            capsys,
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[7]) > 1.5  # ratio close to 1 + d


class TestCheck:
    def test_check_splits_passes(self, capsys):
        code, out, _ = run_main(["check", "splits"], capsys)
        assert code == 0
        assert "PASS vertex-split" in out

    def test_unknown_suite_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["check", "wat"])
        assert exc.value.code == 1


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "orientlab.cli", "generate", "fork"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert '"vertices"' in proc.stdout


def test_python_m_orientlab_prints_cli_main_bytes(capsys):
    import orientlab

    env = dict(os.environ)
    src = str(Path(orientlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["run", "--gen", "fork", "--eps", "0.01", "--samples", "500", "--seed", "3"]
    proc = subprocess.run(
        [sys.executable, "-m", "orientlab", *argv], capture_output=True, env=env, timeout=120
    )
    code, out, _ = run_main(argv, capsys)
    assert proc.returncode == code == 0
    assert proc.stdout == out.encode()


def test_check_failure_exit_code(monkeypatch, capsys):
    import orientlab.acceptance as acc
    from orientlab.acceptance import CriterionResult

    def failing():
        return CriterionResult("vertex-split", False, "forced failure", 0.0)

    monkeypatch.setitem(acc.CRITERIA, "vertex-split", failing)
    code = main(["check", "splits"])
    out, _ = capsys.readouterr()
    assert code == 3
    assert "FAIL vertex-split" in out


def test_benchmark_output_checks_accept_a_run(tmp_path, capsys):
    """``check_rows`` of ``bench/workloads.py`` (stdlib-only at import)
    passes on a run of the default algorithms on a weighted gnp: its
    exact E[ALG] reads ``plan_threshold``, ``plan_best_vc`` and
    ``exact_prob_graph``.  A shifted threshold mean fails it."""
    path = Path(__file__).parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    instance = gen_random("gnp", 3, n=10, p=0.3, unit_cost=False)
    doc = tmp_path / "gnp.json"
    doc.write_text(serialize_instance(instance))
    code, out, _ = run_main(
        ["run", "--instance", str(doc), "--samples", "2000", "--seed", "11"], capsys
    )
    assert code == 0
    algorithms = [("threshold", 1.0, None), ("bestvc", None, None), ("baseline", None, None)]
    assert workloads.check_rows(out, instance, algorithms, 2000, 11, header=True) == (set(), [])
    lines = out.splitlines()
    row = lines[1].split(",")
    row[5] = repr(float(row[5]) * 1.1)  # mean_alg
    lines[1] = ",".join(row)
    failed, _ = workloads.check_rows("\n".join(lines), instance, algorithms, 2000, 11, header=True)
    assert failed == {0}


def test_run_reports_solver_bound_per_row(tmp_path, capsys):
    # with nothing mandatory the fork's whole 3-vertex star is left to
    # the cover solver, tripping a bound of 2; the row is skipped and
    # reported on stderr
    code, out, err = run_main(
        [
            "run", "--gen", "fork", "--eps", "0.01", "--samples", "20",
            "--seed", "1", "-a", "baseline", "--vc-bound", "2",
        ],
        capsys,
    )
    assert code == 2
    assert out.strip().splitlines()[0].startswith("instance_id")
    assert "baseline" in err and "exceeds bound" in err


def _vertex_doc(vid, lo, hi, cost=1.0, mass=1.0):
    pmf = [{"cell": [lo, hi], "mass": mass}]
    return {"id": vid, "cost": cost, "interval": [lo, hi], "pmf": pmf}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"vertices": 5}, "'vertices' list"),
        ({"vertices": [], "hyperedges": 3}, "'hyperedges'"),
        (
            {
                "vertices": [_vertex_doc("a", 0, 2, cost="inf"), _vertex_doc("b", 1, 3)],
                "hyperedges": [["a", "b"]],
            },
            "finite",
        ),
        ({"vertices": [_vertex_doc("a", 0, "inf")]}, "non-finite"),
        ({"vertices": [_vertex_doc("a", 0, 1, mass="nan")]}, "finite"),
        ({"vertices": [_vertex_doc("a", 0, 2, cost=10**400)]}, "malformed vertex"),
        ({"vertices": [_vertex_doc("a", 1.0, math.nextafter(1.0, 2.0))]}, "too narrow"),
        ({"vertices": [_vertex_doc("a", -1e308, 1e308)]}, "too wide"),
        ({"vertices": []}, "E[OPT] is 0"),
    ],
    ids=[
        "vertices-not-list", "hyperedges-not-list", "infinite-cost", "infinite-interval",
        "nan-mass", "huge-integer-cost", "no-float-inside", "too-wide", "no-vertices",
    ],
)
def test_malformed_instance_file_exits_2(doc, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_main(["run", "--instance", str(path), "--samples", "20"], capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and message in err


def test_instance_without_hyperedges_exits_2(tmp_path, capsys):
    # E[OPT] = 0 leaves the ratio undefined: one line, no traceback
    path = tmp_path / "edgeless.json"
    path.write_text(json.dumps({"vertices": [_vertex_doc("a", 0, 1)]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_main(["run", "--instance", str(path), "--samples", "20"], capsys)
    assert code == 2
    assert out == ""
    assert err == "orientlab: E[OPT] is 0: nothing to orient\n"


# integers of every magnitude, past the float range too
_INTEGERS = st.builds(lambda m, e: m * 10**e, st.integers(), st.integers(0, 400))
_JSON = st.recursive(
    st.none() | st.booleans() | _INTEGERS | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_VALID_DOCS = [
    serialize_instance(gen_benchmark("fork", eps=0.1)),
    serialize_instance(gen_benchmark("weighted-triple")),
]


def _paths(node, prefix=()):
    """Every path into a JSON document, as tuples of keys and indices."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@given(st.sampled_from(_VALID_DOCS), st.data())
@settings(max_examples=150, deadline=None)
def test_mutated_instance_exits_0_or_2_with_one_line(tmp_path_factory, text, data):
    # swap values at random paths for random JSON values, or drop keys and
    # list items: the run either succeeds or fails with exactly one line
    doc = json.loads(text)
    for _ in range(data.draw(st.integers(1, 4))):
        paths = list(_paths(doc))
        if not paths:
            break
        *parents, key = data.draw(st.sampled_from(paths))
        parent = doc
        for step in parents:
            parent = parent[step]
        if data.draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = data.draw(_JSON)
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(["run", "--instance", str(path), "--samples", "20"])
    if code == 0:
        assert out.getvalue().startswith("instance_id,") and err.getvalue() == ""
    else:
        assert code == 2
        assert out.getvalue() == ""
        assert err.getvalue().startswith("orientlab: ") and err.getvalue().count("\n") == 1


@given(
    family=st.sampled_from(["gnp", "hypergraph"]),
    seed=st.integers(0, 2**32 - 1),
    unit_cost=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_threads_do_not_change_bytes_property(tmp_path_factory, family, seed, unit_cost):
    if family == "gnp":
        instance = gen_random("gnp", seed, n=7, p=0.4, unit_cost=unit_cost)
        algorithms = ["-a", "threshold", "-a", "bestvc", "-a", "baseline"]
    else:
        instance = gen_random("hypergraph", seed, n=7, m=3, unit_cost=unit_cost)
        algorithms = ["-a", "threshold-hyper", "-a", "bestvc", "-a", "baseline"]
    path = tmp_path_factory.getbasetemp() / "threads.json"
    path.write_text(serialize_instance(instance))
    runs = []
    for threads in ("1", "2"):
        out, err = io.StringIO(), io.StringIO()
        argv = ["run", "--instance", str(path), *algorithms, "--samples", "300"]
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv + ["--seed", str(seed % 1000), "--threads", threads])
        runs.append((code, out.getvalue(), err.getvalue()))
    assert runs[0] == runs[1]
    assert runs[0][0] in (0, 2)  # 2 only for an edgeless draw


def test_run_and_check_leave_numpy_ma_unimported():
    # np.percentile and np.unique import numpy.ma on their first call,
    # which every fresh process would pay inside its first evaluation
    import orientlab

    script = (
        "import sys\n"
        "from orientlab.cli import main\n"
        "main(['run', '--gen', 'fork', '--samples', '500', '--seed', '3'])\n"
        "assert 'numpy.ma' not in sys.modules, 'run'\n"
        "main(['check', 'thresholds'])\n"
        "assert 'numpy.ma' not in sys.modules, 'check thresholds'\n"
    )
    paths = [str(Path(orientlab.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
