"""One pass of a workload, in a fresh interpreter.

Started by ``run.py``; writes one JSON result file and exits 0, or exits
non-zero when it could not run at all.  Times are CLOCK_MONOTONIC
readings, so ``run.py`` can measure from before it started this
interpreter.

    python3 bench/one_pass.py --workload NAME --seed N --index I --trace 0|1 \
        --work-dir DIR --out FILE
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

import tracer as tracing
from tracer import clock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


class Pass:
    """Calls into orientlab for one pass, timing each call and keeping
    what the checks need; the checks run after the last call."""

    def __init__(self, work_dir: Path, tracer):
        self.work_dir = work_dir
        self.tracer = tracer
        self.first_call: float | None = None
        self.call_seconds = 0.0
        self.samples = 0
        self.attempted = 0
        self.eval_ms: list[float] = []
        self.errors: list[str] = []
        self._pending: list = []

    def _call(self, fn, *args):
        """Run one call into the program; returns (result, error text)."""
        t0 = clock()
        if self.first_call is None:
            self.first_call = t0
        if self.tracer is not None:
            self.tracer.active = True
        try:
            return fn(*args), None
        # The benchmark is the boundary that must keep running: any failure
        # of the program, its own AssertionError included, is a failed
        # evaluation.  SystemExit comes from argparse usage errors.
        except (Exception, SystemExit) as exc:
            return None, f"{type(exc).__name__}: {exc}"
        finally:
            if self.tracer is not None:
                self.tracer.active = False
            self.call_seconds += clock() - t0

    def cli_run(self, instance, algorithms, n_samples: int, master: int, extra: list[str]) -> None:
        """``orientlab run --instance FILE`` for several algorithms, CSV to a file."""
        from orientlab import cli, model

        stem = f"instance-{len(self._pending)}"
        path = self.work_dir / f"{stem}.json"
        path.write_text(model.serialize_instance(instance) + "\n")
        out = self.work_dir / f"{stem}.csv"
        argv = ["run", "--instance", str(path)] + [a for k, _, _ in algorithms for a in ("-a", k)]
        argv += ["--samples", str(n_samples), "--seed", str(master), "--timing", "-o", str(out)]
        argv += extra
        self.attempted += len(algorithms)
        self.samples += n_samples * len(algorithms)
        code, error = self._call(cli.main, argv)
        if error is None and code != 0:
            error = f"exit code {code}"
        self._pending.append(("cli", instance, algorithms, n_samples, master, out, error))

    def evaluate_run(self, instance_id: str, instance, algorithms, n_samples: int, master: int) -> None:
        """``harness.evaluate`` once per algorithm, all with the same seed."""
        from orientlab import harness

        import workloads

        reports, errors = [], []
        for kind, alpha, d in algorithms:
            spec = workloads.spec_of(kind, alpha, d)
            self.attempted += 1
            self.samples += n_samples
            t0 = clock()
            report, error = self._call(harness.evaluate, instance, spec, n_samples, master, instance_id)
            self.eval_ms.append(1e3 * (clock() - t0))
            reports.append(report)
            errors.append(error)
        self._pending.append(("evaluate", instance, algorithms, n_samples, master, reports, errors))

    def check(self) -> int:
        """Run every output check; returns the number of failed evaluations."""
        from orientlab import harness

        import workloads

        failed = 0
        for kind, instance, algorithms, n_samples, master, payload, error in self._pending:
            if kind == "cli":
                text = payload.read_text() if payload.exists() else ""
                if error is not None:
                    self.errors.append(error)
                self.eval_ms.extend(self._wall_ms(text))
                bad, messages = workloads.check_rows(text, instance, algorithms, n_samples, master, True)
                if error is not None and not bad:
                    bad = {0}
            else:
                self.errors.extend(e for e in error if e is not None)
                good = [r for r in payload if r is not None]
                if len(good) != len(payload):
                    failed += len(payload)
                    continue
                text = "\n".join(harness.csv_row(r) for r in good)
                bad, messages = workloads.check_rows(text, instance, algorithms, n_samples, master, False)
            failed += len(bad)
            self.errors.extend(messages)
        return failed

    @staticmethod
    def _wall_ms(text: str) -> list[float]:
        """Per-evaluation latency the program measured itself (``--timing``)."""
        out = []
        for line in text.splitlines()[1:]:
            try:
                out.append(float(line.rsplit(",", 1)[1]))
            except (IndexError, ValueError):
                pass
        return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    import numpy as np
    import orientlab
    from orientlab import cli, harness  # noqa: F401  (import cost is set-up)

    if Path(orientlab.__file__).resolve().parent != ROOT / "src" / "orientlab":
        print(f"one_pass: imported orientlab from {orientlab.__file__}", file=sys.stderr)
        return 2

    import workloads

    work_dir = Path(args.work_dir)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(str(work_dir))
        tracer.install()
    ctx = Pass(work_dir, tracer)
    workloads.PASSES[args.workload](ctx, args.seed, args.index)
    failed = ctx.check()
    end = clock()

    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {
        "first_call": ctx.first_call,
        "end": end,
        "call_seconds": ctx.call_seconds,
        "samples": ctx.samples,
        "attempted": ctx.attempted,
        "failed": failed,
        "errors": ctx.errors[:20],
        "eval_ms": ctx.eval_ms,
        "peak_rss_mb": rss_kb / 1024.0,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
    if tracer is not None:
        spans, counts, patterns = tracer.collect()
        result["trace"] = tracing.summarize(spans, counts, patterns)
        result["absent"] = tracer.absent
        with open(work_dir / "spans.json", "w") as fh:
            json.dump(spans, fh)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
