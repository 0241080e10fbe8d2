"""The four workloads: seeded inputs with exact references, the program's
set-up, the ops that are timed, and the check applied to every op's output.

Inputs come only from the seed.  References come only from
``esf_reference``, never from the program or from stored output.  Every op
of a workload costs about the same, and a pass runs whole rounds of the
workload's op list, so the share of failed ops cannot depend on how many
rounds fit into the run.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Callable

from esf_reference import expected_esf_profile

FLOAT_RTOL = 1e-8
MC_STANDARD_ERRORS = 4


@dataclass(frozen=True)
class Case:
    """One problem: model sizes, rational parameters and the exact profile
    [E e_1(W), ..., E e_p(W)]."""

    label: str
    n: int
    sigma: tuple
    m: tuple | None
    reference: tuple


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class PassResult:
    op_seconds: list
    failed: int
    wall_seconds: float

    @property
    def attempted(self) -> int:
        return len(self.op_seconds)

    @classmethod
    def combine(cls, passes: list["PassResult"]) -> "PassResult":
        return cls(
            [t for p in passes for t in p.op_seconds],
            sum(p.failed for p in passes),
            sum(p.wall_seconds for p in passes),
        )


def run_pass(ops: list[Op], *, seconds: float | None = None, rounds: int | None = None) -> PassResult:
    """Run whole rounds of ``ops`` one after another until ``seconds`` have
    passed or ``rounds`` rounds are done.  An op that raises, or whose
    output fails its check, counts as failed."""
    op_seconds: list[float] = []
    failed = 0
    done = 0
    start = time.perf_counter()
    while True:
        for op in ops:
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a failing op is counted, not fatal
                op_seconds.append(time.perf_counter() - t0)
                failed += 1
                print(f"op {op.label} raised {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            op_seconds.append(time.perf_counter() - t0)
            if not op.check(out):
                failed += 1
                print(f"op {op.label} failed its check", file=sys.stderr)
        done += 1
        wall = time.perf_counter() - start
        if rounds is not None and done >= rounds:
            break
        if seconds is not None and wall >= seconds:
            break
    return PassResult(op_seconds, failed, wall)


# -- seeded inputs ---------------------------------------------------------------


def _nonzero(rng: Random, span: int, dens: tuple) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, span), rng.choice(dens))


def _spd(rng: Random, p: int, dens: tuple) -> tuple:
    """L^T L + I with nonzero entries of L: dense, symmetric positive definite."""
    low = [[_nonzero(rng, 2, dens) for _ in range(p)] for _ in range(p)]
    return tuple(
        tuple(sum(low[k][r] * low[k][c] for k in range(p)) + (r == c) for c in range(p))
        for r in range(p)
    )


def _case(label: str, n: int, sigma, m=None) -> Case:
    return Case(label, n, sigma, m, tuple(expected_esf_profile(n, sigma, m)))


def umbral_cases(rng: Random) -> list[Case]:
    """p=5, n=6: one central diagonal, one central dense (symbolic latent
    roots through power sums) and one scalar-identity noncentral problem
    with a rectangular-diagonal mean, twice."""
    p, n = 5, 6
    cases = []
    for k in range(2):
        diag = tuple(
            tuple(Fraction(rng.randint(1, 6), rng.randint(1, 3)) if r == c else Fraction(0) for c in range(p))
            for r in range(p)
        )
        cases.append(_case(f"diag{k}", n, diag))
        cases.append(_case(f"dense{k}", n, _spd(rng, p, (1, 2))))
        s2 = Fraction(rng.randint(1, 5), rng.randint(1, 2))
        scalar = tuple(tuple(s2 if r == c else Fraction(0) for c in range(p)) for r in range(p))
        mean = tuple(
            tuple(_nonzero(rng, 4, (1, 2, 3)) if r == c else Fraction(0) for c in range(n))
            for r in range(p)
        )
        cases.append(_case(f"scalar{k}", n, scalar, mean))
    return cases


def closed_form_cases(rng: Random) -> list[Case]:
    """p=7, n=9: dense rational covariance and dense rational mean."""
    p, n = 7, 9
    return [
        _case(
            f"dense{k}",
            n,
            _spd(rng, p, (1, 2)),
            tuple(tuple(_nonzero(rng, 3, (1, 2, 4)) for _ in range(n)) for _ in range(p)),
        )
        for k in range(4)
    ]


def _dyadic_cases(rng: Random, p: int, n: int, count: int) -> list[Case]:
    """Dense covariance and mean whose entries are dyadic rationals, so the
    decimal or float form the program sees is the exact rational."""
    return [
        _case(
            f"dyadic{k}",
            n,
            _spd(rng, p, (2, 4)),
            tuple(tuple(_nonzero(rng, 7, (8,)) for _ in range(n)) for _ in range(p)),
        )
        for k in range(count)
    ]


def mc_cases(rng: Random) -> list[Case]:
    return _dyadic_cases(rng, 6, 8, 2)


def cli_cases(rng: Random) -> list[Case]:
    return _dyadic_cases(rng, 5, 6, 2)


# -- checks ------------------------------------------------------------------------


def check_exact(values, reference) -> bool:
    """Exact rational equality, order by order; a float never passes."""
    return len(values) == len(reference) and all(
        isinstance(v, (int, Fraction)) and v == r for v, r in zip(values, reference)
    )


def check_mc(estimate, reference, i: int) -> bool:
    target = float(reference[i - 1])
    value, stderr = estimate.value, estimate.stderr
    return (
        math.isfinite(value)
        and math.isfinite(stderr)
        and stderr > 0
        and abs(value - target) <= MC_STANDARD_ERRORS * stderr
    )


def _close(value, target: Fraction) -> bool:
    if not isinstance(value, float) or not math.isfinite(value):
        return False
    return abs(Fraction(value) - target) <= FLOAT_RTOL * max(1, abs(target))


def _reject_constant(name: str):
    raise ValueError(f"{name} is not valid JSON")


def check_cli(outcome, reference, methods) -> bool:
    """Exit code 0, valid JSON, ``"passed": true`` and every method's value
    within 1e-8 relative of the reference at every order."""
    returncode, stdout = outcome
    if returncode != 0:
        return False
    try:
        report = json.loads(stdout, parse_constant=_reject_constant)
    except ValueError:
        return False
    if not isinstance(report, dict) or report.get("passed") is not True:
        return False
    values = {row.get("i"): row.get("values") for row in report.get("results", []) if isinstance(row, dict)}
    return list(values) == list(range(1, len(reference) + 1)) and all(
        isinstance(v, dict) and all(_close(v.get(m), reference[i - 1]) for m in methods)
        for i, v in values.items()
    )


# -- workloads ----------------------------------------------------------------------


def _import_fresh(name: str):
    """Import ``name`` with every ``wishart_esf`` module evicted first, so
    repeated set-ups each pay the full package import."""
    for key in [k for k in sys.modules if k == "wishart_esf" or k.startswith("wishart_esf.")]:
        del sys.modules[key]
    return importlib.import_module(name)


def _decimal(x: Fraction) -> str:
    text = repr(float(x))
    if Fraction(text) != x:
        raise ValueError(f"{x} has no exact decimal form")
    return text


class Workload:
    """Base: a workload builds its cases from the seed, sets the program up
    (timed) and turns the cases into ops."""

    name = ""
    trace_rounds = 1
    # rounds after which an untraced run reads its peak memory; every run
    # completes them (the pass is extended if it must), about half a run today
    rss_rounds = 1
    entry_module = "wishart_esf"

    def cases(self, rng: Random, workdir: Path) -> list[Case]:
        raise NotImplementedError

    def setup(self, cases: list[Case]):
        """The program's own set-up: import, then parameter construction and
        validation.  Returns what ``ops`` needs."""
        _import_fresh(self.entry_module)
        wishart = sys.modules["wishart_esf.wishart"]
        return [wishart.WishartParams(c.n, len(c.sigma), c.sigma, c.m) for c in cases]

    def ops(self, cases: list[Case], prepared, traced: bool) -> list[Op]:
        raise NotImplementedError


class _ExactProfile(Workload):
    route = ""

    def ops(self, cases, prepared, traced):
        wishart = sys.modules["wishart_esf.wishart"]
        ops = []
        for case, params in zip(cases, prepared):
            orders = range(1, params.p + 1)

            def run(params=params, orders=orders):
                # looked up per call, so a traced run sees the wrapped function
                fn = getattr(wishart, self.route)
                return [fn(params, i) for i in orders]

            ops.append(Op(case.label, run, lambda out, ref=case.reference: check_exact(out, ref)))
        return ops


class UmbralExact(_ExactProfile):
    name = "umbral_exact"
    trace_rounds = 8
    rss_rounds = 20
    route = "expected_esf_umbral"

    def cases(self, rng, workdir):
        return umbral_cases(rng)


class ClosedFormExact(_ExactProfile):
    name = "closed_form_exact"
    trace_rounds = 4
    rss_rounds = 4
    route = "expected_esf_closed_form"

    def cases(self, rng, workdir):
        return closed_form_cases(rng)


class MCSampling(Workload):
    name = "mc_sampling"
    trace_rounds = 4
    rss_rounds = 8
    order = 3
    samples = 100_000

    def __init__(self) -> None:
        self.sample_seeds: list[int] = []

    def cases(self, rng, workdir):
        cases = mc_cases(rng)
        self.sample_seeds = [rng.randrange(2**32) for _ in cases]
        return cases

    def setup(self, cases):
        _import_fresh(self.entry_module)
        wishart = sys.modules["wishart_esf.wishart"]
        return [
            wishart.WishartParams(
                c.n,
                len(c.sigma),
                [[float(x) for x in row] for row in c.sigma],
                [[float(x) for x in row] for row in c.m],
            )
            for c in cases
        ]

    def ops(self, cases, prepared, traced):
        oracles = sys.modules["wishart_esf.oracles"]
        ops = []
        for case, params, seed in zip(cases, prepared, self.sample_seeds):

            def run(params=params, seed=seed):
                return oracles.mc_expected_esf(params, self.order, self.samples, seed)

            ops.append(
                Op(f"{case.label}/seed{seed}", run, lambda est, ref=case.reference: check_mc(est, ref, self.order))
            )
        return ops


class CLIFloat(Workload):
    name = "cli_float"
    trace_rounds = 8
    rss_rounds = 16
    entry_module = "wishart_esf.cli"
    methods = ("closed-form", "umbral")

    def __init__(self) -> None:
        self.argvs: list[list[str]] = []

    def cases(self, rng, workdir):
        cases = cli_cases(rng)
        workdir.mkdir(parents=True, exist_ok=True)
        self.argvs = []
        for case in cases:
            paths = {}
            for key, matrix in (("sigma", case.sigma), ("m", case.m)):
                path = workdir / f"{case.label}-{key}.csv"
                path.write_text("".join(",".join(_decimal(x) for x in row) + "\n" for row in matrix))
                paths[key] = str(path)
            self.argvs.append(
                [
                    "compare",
                    "--methods", ",".join(self.methods),
                    "--i", f"1..{len(case.sigma)}",
                    "--no-timing",
                    "--n", str(case.n),
                    "--p", str(len(case.sigma)),
                    "--sigma", paths["sigma"],
                    "--m", paths["m"],
                ]
            )
        return cases

    def setup(self, cases):
        cli = _import_fresh(self.entry_module)
        wishart = sys.modules["wishart_esf.wishart"]
        prepared = []
        for argv in self.argvs:
            args = cli.build_parser().parse_args(argv)
            sigma, _ = cli.parse_matrix_csv(args.sigma)
            m, _ = cli.parse_matrix_csv(args.m)
            prepared.append(wishart.WishartParams(args.n, args.p, sigma, m))
        return prepared

    def ops(self, cases, prepared, traced):
        cli = sys.modules["wishart_esf.cli"]
        ops = []
        for case, argv in zip(cases, self.argvs):
            if traced:
                # in-process, so the wrapped library functions see the calls
                def run(argv=argv):
                    buffer = io.StringIO()
                    with contextlib.redirect_stdout(buffer):
                        code = cli.main(argv)
                    return code, buffer.getvalue()

            else:

                def run(argv=argv):
                    proc = subprocess.run(
                        [sys.executable, "-m", "wishart_esf", *argv],
                        env=child_env(),
                        capture_output=True,
                        text=True,
                        check=False,
                    )
                    return proc.returncode, proc.stdout

            ops.append(
                Op(case.label, run, lambda out, ref=case.reference: check_cli(out, ref, self.methods))
            )
        return ops


THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    """Environment for program subprocesses: the checkout's ``src`` first on
    the path, one BLAS thread."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for var in THREAD_VARIABLES:
        env[var] = "1"
    return env


WORKLOADS = {w.name: w for w in (UmbralExact, ClosedFormExact, MCSampling, CLIFloat)}
