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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["generate", "overlap-family", "--k", "0"], "k must be at least 1"),
        (["generate", "overlap-family", "--k", "-1"], "k must be at least 1"),
        (
            ["generate", "overlap-family", "--k", "0.5"],
            "--k must be a whole number for overlap-family, got 0.5",
        ),
        (["generate", "hub-biclique", "--k", "0"], "k must be at least 1"),
        (
            ["generate", "hub-biclique", "--k", "2.5"],
            "--k must be a whole number for hub-biclique, got 2.5",
        ),
        (["run", "--gen", "hub-biclique", "--k", "0"], "k must be at least 1"),
    ],
)
def test_degenerate_k_exits_2(argv, message, capsys):
    code, out, err = run_main(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == f"orientlab: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--instance", "{tmp}/missing.json"], "{tmp}/missing.json: No such file or directory"),
        (["run", "--instance", "{tmp}"], "{tmp}: Is a directory"),
        (
            ["run", "--gen", "fork", "--samples", "100", "-o", "{tmp}/no/x.csv"],
            "{tmp}/no/x.csv: No such file or directory",
        ),
        (["generate", "fork", "-o", "{tmp}/no/x.json"], "{tmp}/no/x.json: No such file or directory"),
        (["generate", "fork", "-o", "{tmp}"], "{tmp}: Is a directory"),
        (["run", "--gen", "fork", "--d", "abc"], "--d must be a number or 'auto', got 'abc'"),
    ],
)
def test_bad_path_or_d_exits_2(argv, message, tmp_path, capsys):
    code, out, err = run_main([a.replace("{tmp}", str(tmp_path)) for a in argv], capsys)
    assert code == 2
    assert out == ""
    assert err == f"orientlab: {message.replace('{tmp}', str(tmp_path))}\n"


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
        commit: sampled planning on a weighted hypergraph, and a weighted
        gnp with an odd sample count, 777."""
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
        assert err == (
            f"orientlab: threshold-hyper(alpha=1;eps=0.05;delta={delta}): "
            "epsilon and delta must lie in (0, 1)\n"
        )

    def test_seeds_at_or_above_2_63_stay_distinct(self, capsys):
        def means(seed):
            argv = ["run", "--gen", "fork", "--samples", "2000", "--seed", str(seed)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_main(argv, capsys)
            assert code == 0
            assert err == ""
            return [line.split(",")[5:7] for line in out.splitlines()[1:]]

        # a float cast of the Philox key made these two seeds one stream
        assert means(2**63) != means(2**63 + 1)

    @pytest.mark.parametrize("seed", [str(2**64), "-1"])
    def test_seed_outside_uint64_exits_2(self, seed, capsys):
        code, out, err = run_main(["run", "--gen", "fork", "--samples", "100", "--seed", seed], capsys)
        assert code == 2
        assert out == ""
        assert err == f"orientlab: seed {seed} outside [0, 2^64)\n"

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

        monkeypatch.setattr(harness, "_sample_weights", never)
        code, out, err = run_main(
            ["run", "--gen", "fork", "-a", "leaves-first", "--samples", "100"], capsys
        )
        assert code == 2
        assert out == ""
        assert err == "orientlab: leaves-first: leaves-first policy is defined for a single hyperedge\n"

    @pytest.mark.parametrize(
        "args, message",
        [
            (
                ["--gen", "fork", "-a", "leaves-first", "-a", "threshold-hyper", "--delta", "2"],
                "leaves-first: leaves-first policy is defined for a single hyperedge",
            ),
            (
                ["--gen", "fork", "-a", "threshold-hyper", "-a", "leaves-first", "--delta", "2"],
                "threshold-hyper(alpha=1;eps=0.05;delta=2): epsilon and delta must lie in (0, 1)",
            ),
            (
                ["--gen", "overlap-family", "-a", "threshold"],
                "threshold(alpha=1;d=auto): exact probabilities only for graphs; "
                "use a sampled estimate",
            ),
        ],
        ids=["leaves-first-first", "bad-delta-first", "exact-profile-on-hypergraph"],
    )
    def test_first_failing_spec_names_the_error(self, args, message, capsys):
        code, out, err = run_main(["run", *args, "--samples", "100"], capsys)
        assert code == 2
        assert out == ""
        assert err == f"orientlab: {message}\n"

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


ALPHA_D = ["--alpha", "2", "--d", "0.5"]
EPS_DELTA = ["--eps", "0.1", "--delta", "0.2"]


@pytest.mark.parametrize(
    "kind, name, flags",
    [
        *[(kind, name, ALPHA_D + EPS_DELTA)
          for kind in ("baseline", "offline-opt")
          for name in ("fork", "single-set", "overlap-pair")],
        ("leaves-first", "single-set", ALPHA_D + EPS_DELTA),
        ("bestvc", "fork", ALPHA_D + EPS_DELTA),
        ("bestvc", "overlap-pair", ALPHA_D + EPS_DELTA),
        ("bestvc", "single-set", ALPHA_D),  # plans from a profile sampled to eps, delta
        ("threshold", "fork", EPS_DELTA),
        ("threshold", "overlap-pair", EPS_DELTA),
    ],
)
def test_flags_a_kind_does_not_read_leave_its_row(kind, name, flags, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(serialize_instance(gen_benchmark(name)))
    argv = ["run", "--instance", str(path), "-a", kind, "--samples", "500", "--seed", "4"]
    code, out, err = run_main(argv, capsys)
    assert (code, err) == (0, "")
    assert run_main(argv + flags, capsys) == (code, out, err)


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
    import orientlab

    env = dict(os.environ)
    src = str(Path(orientlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "orientlab.cli", "generate", "fork"],
        capture_output=True,
        text=True,
        env=env,
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


@pytest.mark.parametrize(
    "argv, read",
    [
        (["generate", "staircase", "--n", "4096"], 80),  # about 1.5 MB, past any pipe buffer
        (["run", "--gen", "fork", "--samples", "100"], 0),
    ],
    ids=["closed-after-80-bytes", "closed-before-output"],
)
def test_closed_stdout_exits_1_with_empty_stderr(argv, read):
    """A reader that closes the pipe early, as ``| head -c 80`` does:
    exit 1, nothing on stderr, no traceback."""
    import orientlab

    env = dict(os.environ)
    src = str(Path(orientlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    proc = subprocess.Popen(
        [sys.executable, "-m", "orientlab", *argv], stdout=write_end, stderr=subprocess.PIPE, env=env
    )
    os.close(write_end)
    with os.fdopen(read_end, "rb") as reader:
        assert len(reader.read(read)) == read
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (1, b"")


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
                "vertices": [_vertex_doc("a", 0, 2, cost=math.inf), _vertex_doc("b", 1, 3)],
                "hyperedges": [["a", "b"]],
            },
            "finite",
        ),
        ({"vertices": [_vertex_doc("a", 0, math.inf)]}, "non-finite"),
        ({"vertices": [_vertex_doc("a", 0, 1, mass=math.nan)]}, "finite"),
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


@pytest.mark.parametrize(
    "data, where",
    [
        (b'{"vertices": [\xcb\x01]}', "invalid continuation byte at byte 14"),
        (b"\xff\xfe{}", "invalid start byte at byte 0"),
        (b"{}\xe2\x82", "unexpected end of data at byte 2"),
    ],
)
def test_non_utf8_instance_file_exits_2(data, where, tmp_path, capsys):
    path = tmp_path / "bytes.json"
    path.write_bytes(data)
    code, out, err = run_main(["run", "--instance", str(path), "--samples", "20"], capsys)
    assert (code, out, err) == (2, "", f"orientlab: {path}: not UTF-8 text ({where})\n")


@pytest.mark.parametrize("opener", ["[", '{"a": '], ids=["arrays", "objects"])
def test_deeply_nested_instance_file_exits_2(opener, tmp_path, capsys):
    # json.loads recurses once per level and runs out of stack
    path = tmp_path / "nested.json"
    path.write_text(opener * 100_000)
    code, out, err = run_main(["run", "--instance", str(path), "--samples", "20"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("orientlab: not valid JSON: ") and err.count("\n") == 1


@pytest.mark.parametrize("keep_edges", [True, False])
def test_duplicate_vertex_id_exits_2(keep_edges, tmp_path, capsys):
    """fork with its second vertex renamed to the first one's id: named as
    a duplicate, also while a hyperedge still references the old id."""
    doc = json.loads(serialize_instance(gen_benchmark("fork")))
    doc["vertices"][1]["id"] = doc["vertices"][0]["id"]
    assert doc["hyperedges"] == [["x", "y"], ["x", "z"]]
    if not keep_edges:
        doc["hyperedges"] = [["x", "z"]]
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_main(["run", "--instance", str(path), "--samples", "20"], capsys)
    assert (code, out, err) == (2, "", "orientlab: duplicate vertex id 'x'\n")


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("cost", True, "vertex a: cost must be a number, got true"),
        ("cost", "2", 'vertex a: cost must be a number, got "2"'),
        ("cost", None, "vertex a: cost must be a number, got null"),
        ("interval", ["0", "2"], 'vertex a: interval end must be a number, got "0"'),
        ("interval", [0, False], "vertex a: interval end must be a number, got false"),
        ("pmf", [{"cell": [0, "2"], "mass": 1}], 'vertex a: cell end must be a number, got "2"'),
        ("pmf", [{"cell": [0, 2], "mass": "1"}], 'vertex a: mass must be a number, got "1"'),
        ("pmf", [{"cell": [0, 2], "mass": [1]}], "vertex a: mass must be a number, got [1]"),
        ("interval", [0.0, 2.0, 99], "vertex a: interval must be two numbers, got [0.0, 2.0, 99]"),
        ("interval", [0], "vertex a: interval must be two numbers, got [0]"),
        (
            "pmf",
            [{"cell": [0.0, 1.0, "junk"], "mass": 1}],
            'vertex a: cell must be two numbers, got [0.0, 1.0, "junk"]',
        ),
    ],
)
def test_non_numeric_vertex_field_exits_2(field, value, message, tmp_path, capsys):
    # float() would take each of these; the document format takes JSON numbers
    doc = {"vertices": [_vertex_doc("a", 0, 2), _vertex_doc("b", 1, 3)], "hyperedges": [["a", "b"]]}
    doc["vertices"][0][field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_main(["run", "--instance", str(path), "--samples", "20"], capsys)
    assert (code, out, err) == (2, "", f"orientlab: {message}\n")


def test_integer_vertex_fields_parse(tmp_path, capsys):
    ints = [_vertex_doc("a", 0, 2, cost=1, mass=1), _vertex_doc("b", 1, 3, cost=2, mass=1)]
    floats = [_vertex_doc("a", 0.0, 2.0), _vertex_doc("b", 1.0, 3.0, cost=2.0)]
    outputs = []
    for vertices in (ints, floats):
        doc = {"vertices": vertices, "hyperedges": [["a", "b"]]}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_main(["run", "--instance", str(path), "--samples", "20"], capsys)
        assert code == 0 and err == ""
        outputs.append(out)
    assert outputs[0] == outputs[1]


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
