"""Command-line front end: generate instances, run evaluations, check suites.

Exit codes: 0 success, 1 usage error, 2 validation error, 3 acceptance
failure.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from pathlib import Path

from .acceptance import SUITES, run_suite
from .algorithms import AlgorithmSpec
from .harness import (
    BENCHMARKS,
    csv_header,
    csv_row,
    evaluate_all,
    gen_benchmark,
)
from .model import InstanceError, parse_instance, serialize_instance
from .vcover import SolverBoundError


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit with 1
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


_GEN_KEYS = ("eps", "eps2", "eta", "d", "p", "q", "k", "n")  # factory parameters with a flag


def _gen_params(args: argparse.Namespace, name: str, d_flag: str) -> dict:
    """The factory parameters of generator ``name`` given as flags; a flag
    the factory does not take is an InstanceError naming those it takes."""
    flag = {key: d_flag if key == "d" else f"--{key}" for key in _GEN_KEYS}
    accepted = inspect.signature(BENCHMARKS[name]).parameters
    params = {}
    for key in _GEN_KEYS:
        value = getattr(args, "gen_d" if key == "d" else key)
        if value is None:
            continue
        if key not in accepted:
            takes = ", ".join(flag[p] for p in accepted)
            raise InstanceError(f"{flag[key]} does not apply to {name}, which takes {takes}")
        if key == "k" and name in ("overlap-family", "hub-biclique"):
            if not value.is_integer():
                raise InstanceError(f"--k must be a whole number for {name}, got {value:g}")
            value = int(value)
        params[key] = value
    return params


def _add_gen_args(parser: argparse.ArgumentParser, d_flag: str) -> None:
    parser.add_argument("--eps", type=float, default=None, help="tail mass parameter")
    parser.add_argument("--eps2", type=float, default=None)
    parser.add_argument("--eta", type=float, default=None)
    parser.add_argument(d_flag, dest="gen_d", type=float, default=None, help="trap threshold")
    parser.add_argument("--p", type=float, default=None)
    parser.add_argument("--q", type=float, default=None)
    parser.add_argument("--k", type=float, default=None, help="size/cost parameter")
    parser.add_argument("--n", type=int, default=None)


def cmd_generate(args: argparse.Namespace) -> int:
    instance = gen_benchmark(args.name, **_gen_params(args, args.name, "--d"))
    text = serialize_instance(instance)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


def _algorithm_specs(args: argparse.Namespace) -> list[AlgorithmSpec]:
    d = None
    if args.d not in (None, "auto"):
        try:
            d = float(args.d)
        except ValueError:
            raise ValueError(f"--d must be a number or 'auto', got {args.d!r}") from None
    est_eps = args.eps if args.eps is not None else 0.05
    return [
        AlgorithmSpec(name, alpha=args.alpha, d=d, epsilon=est_eps, delta=args.delta)
        for name in args.algorithm or ["threshold", "bestvc", "baseline"]
    ]


def cmd_run(args: argparse.Namespace) -> int:
    if (args.instance is None) == (args.gen is None):
        raise InstanceError("provide exactly one of --instance FILE or --gen NAME")
    if args.instance:
        try:
            text = Path(args.instance).read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            where = f"{exc.reason} at byte {exc.start}"
            raise InstanceError(f"{args.instance}: not UTF-8 text ({where})") from exc
        instance = parse_instance(text)
        instance_id = Path(args.instance).stem
    else:
        instance = gen_benchmark(args.gen, **_gen_params(args, args.gen, "--gen-d"))
        instance_id = args.gen
    specs = _algorithm_specs(args)
    results = evaluate_all(
        instance,
        specs,
        n_samples=args.samples,
        master_seed=args.seed,
        instance_id=instance_id,
        vc_bound=args.vc_bound,
    )
    rows = [csv_header()]
    failures = []
    for spec, result in zip(specs, results):
        if isinstance(result, SolverBoundError):
            failures.append((spec.algorithm_id, str(result)))
        else:
            rows.append(csv_row(result, timing=args.timing))
    text = "\n".join(rows)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    for algorithm_id, message in failures:
        print(f"orientlab: {algorithm_id}: {message}", file=sys.stderr)
    return 2 if failures else 0


def cmd_check(args: argparse.Namespace) -> int:
    results = run_suite(args.suite)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name} ({res.seconds:.1f}s): {res.detail}")
        if not res.passed:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 3 if failed else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="orientlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a benchmark instance file")
    p_gen.add_argument("name", choices=sorted(BENCHMARKS))
    _add_gen_args(p_gen, "--d")
    p_gen.add_argument("-o", "--out", default=None, help="output path (default stdout)")
    p_gen.set_defaults(fn=cmd_generate)

    p_run = sub.add_parser("run", help="evaluate algorithms on an instance")
    p_run.add_argument("--instance", default=None, help="instance JSON file")
    p_run.add_argument("--gen", default=None, choices=sorted(BENCHMARKS))
    _add_gen_args(p_run, "--gen-d")
    p_run.add_argument(
        "-a",
        "--algorithm",
        action="append",
        choices=["threshold", "threshold-hyper", "bestvc", "baseline", "offline-opt", "leaves-first"],
        help="repeatable; default threshold+bestvc+baseline",
    )
    p_run.add_argument("--alpha", type=float, default=1.0, help="declared cover approximation factor")
    p_run.add_argument(
        "--d",
        default="auto",
        help="threshold parameter: a number or 'auto' for the optimum",
    )
    p_run.add_argument("--samples", type=int, default=10_000)
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument(
        "--threads", type=int, default=1, help="accepted for compatibility; changes nothing"
    )
    p_run.add_argument("--delta", type=float, default=0.1)
    p_run.add_argument("--vc-bound", type=int, default=24)
    p_run.add_argument("--timing", action="store_true", help="emit measured wall_ms")
    p_run.add_argument("-o", "--out", default=None)
    p_run.set_defaults(fn=cmd_run)

    p_check = sub.add_parser("check", help="run an acceptance suite")
    p_check.add_argument("suite", choices=sorted(SUITES))
    p_check.set_defaults(fn=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        where = f"{exc.filename}: " if exc.filename is not None else ""
        print(f"orientlab: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2
    except (InstanceError, SolverBoundError, ValueError) as exc:
        print(f"orientlab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
