"""orientlab benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of one workload, each in a fresh interpreter
(``bench/one_pass.py``), until ``--seconds`` have gone by (and at least
the workload's minimum number of passes).  Pass ``i`` generates its
instances from ``(seed, i)``, so a seed fixes every input.  Every report
is checked.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are printed;
with ``--trace 1`` the per-layer metrics, measured by spans installed from
``bench/tracer.py``.  A traced run alternates traced and untraced passes
on the same inputs and reports the difference of their median wall times
as ``trace.overhead_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A results file
with the machine, the passes and any check failures is written under
``.bench_out/results/``.  Uses only the standard library.
"""

from __future__ import annotations

import argparse
import datetime
import gzip
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

OUT = ROOT / ".bench_out"
# No pass starts after LAST_START_S and every pass is killed by END_S
# (both from this process's start), so a run ends within 180 s.
LAST_START_S = 110.0
END_S = 165.0
STARTED = tracing.clock()


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "loadavg_at_start": list(os.getloadavg()),
    }


def record_order(args) -> list[str]:
    """Append this run to the checkout's run log; return the workloads in
    the order they ran here, this one last."""
    log = OUT / "runs.log"
    entry = {
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
    }
    with open(log, "a") as fh:
        fh.write(json.dumps(entry) + "\n")
    with open(log) as fh:
        return [json.loads(line)["workload"] for line in fh if line.strip()]


def run_pass(args, index: int, trace: int, run_dir: Path, env: dict) -> dict:
    """One pass in a fresh interpreter; times are measured from before it starts."""
    work_dir = run_dir / f"pass-{index}-{trace}"
    work_dir.mkdir(parents=True)
    out = work_dir / "result.json"
    cmd = [
        sys.executable, str(BENCH / "one_pass.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--index", str(index),
        "--trace", str(trace), "--work-dir", str(work_dir), "--out", str(out),
    ]
    spawned = tracing.clock()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=max(1.0, STARTED + END_S - tracing.clock()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the pass and its pool workers
        _, stderr = proc.communicate()
        stderr = f"pass killed {END_S} s after run.py started\n" + (stderr or "")
    attempted = workloads.WORKLOADS[args.workload]["evaluations"]
    if proc.returncode != 0 or not out.exists():
        return {
            "index": index, "traced": trace, "ok": False, "attempted": attempted,
            "failed": attempted, "errors": [f"exit {proc.returncode}: {(stderr or '')[-2000:]}"],
        }
    result = json.loads(out.read_text())
    result.update(
        index=index, traced=trace, ok=True,
        wall_s=result["end"] - spawned, setup_s=result["first_call"] - spawned,
    )
    return result


def end_to_end(passes: list[dict]) -> dict:
    eval_ms = [x for p in passes for x in p["eval_ms"]]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "realizations_per_s": sum(p["samples"] for p in passes)
        / sum(p["call_seconds"] for p in passes),
        "eval_ms.p50": statistics.median(eval_ms),
        "eval_ms.p90": statistics.quantiles(eval_ms, n=10, method="inclusive")[8],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, dict, dict]:
    sums: dict = {}
    absent: set[str] = set()
    for p in traced:
        tracing.merge(sums, p["trace"])
        absent.update(p["absent"])
    values, missing = tracing.per_layer(
        sums,
        sum(p["samples"] for p in traced),
        sum(p["attempted"] for p in traced),
        absent,
    )
    values["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in untraced
    )
    values["trace.absent_targets"] = float(len(absent))
    idle = [
        name for name in list(tracing.SPAN_TARGETS) + list(tracing.COUNT_TARGETS)
        if name not in absent and not sums.get(f"{name}.n") and not sums.get(f"{name}.count")
    ]
    absent_report = {"spans": sorted(absent), "metrics": missing, "not_called": idle}
    return values, absent_report, sums.get("plans_by_algorithm", {})


def main() -> int:
    parser = argparse.ArgumentParser(description="orientlab benchmark runner")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "orientlab" / "__init__.py").is_file():
        print(f"run.py: no orientlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]

    machine = machine_info()
    OUT.mkdir(exist_ok=True)
    (OUT / "results").mkdir(exist_ok=True)
    order = record_order(args)
    run_dir = OUT / "tmp" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONHASHSEED="0")

    # Compile the sources once, so no pass pays for writing bytecode.
    warm = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import orientlab.cli"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    if warm.returncode != 0:
        print(f"run.py: cannot import orientlab:\n{warm.stderr}", file=sys.stderr)
        shutil.rmtree(run_dir, ignore_errors=True)
        return 2

    info = workloads.WORKLOADS[args.workload]
    start = tracing.clock()
    passes: list[dict] = []
    index = 0
    while True:
        elapsed = tracing.clock() - start
        if index >= info["min_passes"] and elapsed >= args.seconds:
            break
        if index > 0 and tracing.clock() - STARTED >= LAST_START_S:
            break
        modes = [0] if not args.trace else ([0, 1] if index % 2 == 0 else [1, 0])
        for mode in modes:
            passes.append(run_pass(args, index, mode, run_dir, env))
        index += 1

    good = [p for p in passes if p["ok"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors = [e for p in passes for e in p.get("errors", [])]
    untraced = [p for p in good if p["traced"] == 0]
    traced = [p for p in good if p["traced"] == 1]
    if not untraced or (args.trace and not traced):
        print("run.py: no pass completed", file=sys.stderr)
        for e in errors[:5]:
            print(e, file=sys.stderr)
        shutil.rmtree(run_dir, ignore_errors=True)
        return 1

    absent: dict = {"spans": [], "metrics": [], "not_called": []}
    plans_by_algorithm: dict = {}
    if args.trace:
        values, absent, plans_by_algorithm = per_layer(traced, untraced)
    else:
        values = end_to_end(untraced)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}
    correct = failed == 0

    machine["numpy"] = good[0]["numpy"]
    machine["python"] = good[0]["python"]
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    results = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    spans_path = None
    if traced:  # only the latest traced pass of each workload is kept
        spans_path = OUT / "results" / f"{args.workload}-latest-traced-pass.spans.json.gz"
        with open(run_dir / f"pass-{traced[-1]['index']}-1" / "spans.json", "rb") as src:
            with gzip.open(spans_path, "wb") as dst:
                shutil.copyfileobj(src, dst)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "run_order": order,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 0.0,
        "errors": errors[:50],
        "metrics": metrics,
        "absent": absent,
        "plans_per_evaluate_by_algorithm": {
            alg: plans / evals for alg, (evals, plans) in plans_by_algorithm.items() if evals
        },
        "eval_ms_samples": sum(len(p["eval_ms"]) for p in untraced),
        "spans_of_last_traced_pass": str(spans_path.relative_to(ROOT)) if spans_path else None,
        "passes": [
            {k: v for k, v in p.items() if k not in ("eval_ms", "trace", "errors")} for p in passes
        ],
    }
    results.write_text(json.dumps(report, indent=1) + "\n")
    shutil.rmtree(run_dir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes, {attempted} evaluations, {failed} failed")
    print(f"machine: {json.dumps(machine)}")
    if not args.trace:
        print(f"eval_ms samples: {report['eval_ms_samples']}")
    for alg, ratio in report["plans_per_evaluate_by_algorithm"].items():
        print(f"plans per evaluate, {alg}: {ratio:g}")
    if absent["spans"]:
        print(f"absent spans: {', '.join(absent['spans'])}; "
              f"reported as 0: {', '.join(absent['metrics'])}")
    if absent["not_called"]:
        print(f"not called on this workload: {', '.join(absent['not_called'])}")
    for e in errors[:10]:
        print(f"check failed: {e}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"results: {results.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
