"""End-to-end benchmark of the lqspec command line.

Drives ``lqspec.cli.main(argv)`` in this process, one op at a time (closed
loop, one client), with stdout captured, and checks every op's output
against the closed forms after the timed region.  See bench/README.md.

    python3 bench/run.py --workload curve --seed 1 --seconds 30 --trace 0

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the run
record (machine, versions, commit, seed, deadlines, op latencies, output
digests).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# One process generates the load; the sampler and BLAS stay single-threaded.
THREAD_VARS = {
    "LQSPEC_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# Each family at its canonical point (the CLI's defaults).
FAMILIES = ("strong-r", "strong-r2", "nonstrong-r-basic", "nonstrong-r-heights", "nonstrong-r2")
WORKLOADS = ("curve", "compare", "stiff_q")

# Per-op deadlines in seconds.  stiff_q's is the latency limit under test;
# the others only stop a hung op long before the 180 s run limit.
DEADLINES = {"curve": 30.0, "compare": 60.0, "stiff_q": 1.0}
SIZES = {"steps": 101, "samples": 1_000_000, "stiff_qs": (16.0, 40.0, 100.0)}
TAU_TOL = 1e-9  # spectral route against the closed forms
MC_TOL = 0.1  # Monte Carlo estimate against the spectral route
SETUP_PROBES = 6
CURVE_Q = (0.0, 10.0)
COMPARE_Q = 2.0


@dataclass(frozen=True)
class Op:
    name: str
    kind: str  # solve | curve | compare
    family: str
    argv: tuple[str, ...]
    deadline: float
    q: float | None = None
    steps: int | None = None


@dataclass
class OpResult:
    op: Op
    seconds: float
    stdout: str
    error: str | None  # set when the op did not finish with exit code 0 in time


class DeadlineExceeded(BaseException):
    """Raised from SIGALRM; a BaseException so no library handler swallows it."""


def load_cli():
    """Import ``lqspec.cli`` from this checkout's src/ with threads pinned."""
    os.environ.update(THREAD_VARS)
    if not (SRC / "lqspec" / "__init__.py").is_file():
        raise SystemExit(f"error: no lqspec package under {SRC}")
    sys.path.insert(0, str(SRC))
    from lqspec import cli

    if Path(cli.__file__).resolve().parent != (SRC / "lqspec").resolve():
        raise SystemExit(f"error: imported lqspec from {cli.__file__}, not from {SRC}")
    return cli


def build_ops(workload: str, seed: int, sizes: dict = SIZES) -> list[Op]:
    """The ops of one pass over all families; the seed only feeds the sampler."""
    deadline = DEADLINES[workload]
    if workload == "curve":
        lo, hi = CURVE_Q
        return [
            Op(f"curve/{f}", "curve", f, ("curve", "--family", f, "--q-min", repr(lo),
               "--q-max", repr(hi), "--steps", str(sizes["steps"])), deadline,
               steps=sizes["steps"])
            for f in FAMILIES
        ]
    if workload == "compare":
        return [
            Op(f"compare/{f}", "compare", f, ("compare", "--family", f, "--q", repr(COMPARE_Q),
               "--samples", str(sizes["samples"]), "--seed", str(seed)), deadline, q=COMPARE_Q)
            for f in FAMILIES
        ]
    if workload == "stiff_q":
        return [
            Op(f"solve/{f}/q={q:g}", "solve", f, ("solve", "--family", f, "--q", repr(q)),
               deadline, q=q)
            for q in sizes["stiff_qs"]
            for f in FAMILIES
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Running ops
# ---------------------------------------------------------------------------

def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def run_op(cli, op: Op) -> OpResult:
    """Run one op under its deadline; failures are recorded, never raised."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, op.deadline)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(op.argv))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if code != 0:
            error = f"exit code {code}: {err.getvalue().strip()[:200]}"
    except DeadlineExceeded:
        error = f"deadline {op.deadline:g} s missed"
    except SystemExit as exc:  # argparse rejected the argv
        error = f"exit {exc.code}: {err.getvalue().strip()[:200]}"
    except Exception as exc:  # the boundary of one op: record and go on
        error = f"raised {type(exc).__name__}: {exc}"[:300]
    finally:
        signal.signal(signal.SIGALRM, previous)
    seconds = time.perf_counter() - t0
    if error is None and seconds > op.deadline:
        error = f"deadline {op.deadline:g} s missed ({seconds:.3f} s)"
    return OpResult(op, seconds, out.getvalue(), error)


def measure(cli, ops: list[Op], seconds: float) -> list[tuple[float, list[OpResult]]]:
    """Whole passes over ``ops`` until the next one would end past ``seconds``.

    At least one pass runs.  Returns (pass wall time, op results) per pass.
    """
    passes = []
    spent = 0.0
    while True:
        gc.collect()
        t0 = time.perf_counter()
        results = [run_op(cli, op) for op in ops]
        wall = time.perf_counter() - t0
        passes.append((wall, results))
        spent += wall
        if spent + spent / len(passes) > seconds:
            return passes


# ---------------------------------------------------------------------------
# Correctness gate (outside the timed region)
# ---------------------------------------------------------------------------

class References:
    """Closed-form tau(q) per family, each value computed once per run."""

    def __init__(self, cli):
        from lqspec import closed_forms

        self._cli = cli
        self._closed_forms = closed_forms
        self._families: dict = {}
        self._taus: dict = {}
        self._curves: dict = {}

    def _family(self, family: str):
        if family not in self._families:
            params = self._cli.RunConfig(family=family).family_params()
            self._families[family] = self._closed_forms.build_closed_form(params)
        return self._families[family]

    def tau(self, family: str, q: float) -> float:
        key = (family, q)
        if key not in self._taus:
            self._taus[key] = self._family(family).solve(q).tau
        return self._taus[key]

    def curve(self, family: str, steps: int) -> tuple[list[float], list[float]]:
        """(q grid, tau) on the grid ``curve`` uses.

        Each factor root is warm-started from its root at the previous grid
        point, because a cold ``solve`` raises DomainViolation for strong-r2
        at q = 0.1 and 0.2: its bracket search nears the convergence
        boundary, where the series is too slow.  Each factor has one root, so
        the start changes only the search path.
        """
        key = (family, steps)
        if key not in self._curves:
            import numpy as np

            fam = self._family(family)
            qs = [float(q) for q in np.linspace(*CURVE_Q, steps)]
            roots = [0.0] * len(fam.factors)
            taus = []
            for q in qs:
                roots = [fam.solve_factor(i, q, start=r) for i, r in enumerate(roots)]
                taus.append(min(roots))
            self._curves[key] = (qs, taus)
        return self._curves[key]


def check(res: OpResult, refs: References) -> str | None:
    """Why the op's output is wrong, or None when it is right."""
    op = res.op
    try:
        if op.kind == "curve":
            return _check_curve(op, res.stdout, refs)
        data = json.loads(res.stdout)
        tau = float(data["tau"])
        want = refs.tau(op.family, op.q)
        if not abs(tau - want) <= TAU_TOL:
            return f"tau {tau!r} differs from closed form {want!r}"
        if op.kind == "compare":
            emp = float(data["tau_emp"])
            if not abs(tau - emp) <= MC_TOL:
                return f"|tau - tau_emp| = {abs(tau - emp):.4g} > {MC_TOL}"
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparsable output: {type(exc).__name__}: {exc}"
    return None


def _check_curve(op: Op, text: str, refs: References) -> str | None:
    lines = text.splitlines()
    if not lines or lines[0] != "q,alpha":
        return "missing CSV header"
    rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
    grid, taus = refs.curve(op.family, op.steps)
    if len(rows) != len(grid):
        return f"{len(rows)} rows, expected {len(grid)}"
    for (q, alpha), grid_q, want in zip(rows, grid, taus):
        if q != grid_q:
            return f"q={q!r} is off the grid point {grid_q!r}"
        if not abs(alpha - want) <= TAU_TOL:
            return f"q={q!r}: alpha {alpha!r} differs from closed form {want!r}"
    return None


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile, 0 < p < 1.

    A weighted sum of all order statistics, with the weights a Beta((n+1)p,
    (n+1)(1-p)) distribution puts on each rank.  A single order statistic is
    too noisy here: on ``stiff_q`` the middle rank is always one op
    (nonstrong-r-heights at q=16), so a nearest-rank median is that op's
    median of three samples and swung by a third between runs.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    cdf = [_beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs))


def _beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b) by its continued fraction."""
    if x <= 0.0 or x >= 1.0:
        return min(max(x, 0.0), 1.0)
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _beta_cdf(b, a, 1.0 - x)
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    # Modified Lentz evaluation of the continued fraction for I_x(a, b).
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    frac = d
    for m in range(1, 500):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            frac *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    return math.exp(log_front) * frac / a


def measure_setup(workload: str, seed: int, probes: int) -> list[float]:
    """Times from spawning a fresh interpreter to lqspec imported and ops built."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import run; "
        "run.load_cli(); run.build_ops(sys.argv[2], int(sys.argv[3])); print('ready', flush=True)"
    )
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", code, str(BENCH_DIR), workload, str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            rc = proc.wait()
        if line.strip() != "ready" or rc != 0:
            raise SystemExit(f"error: set-up probe failed with exit code {rc}")
    return times


def end_to_end_metrics(passes, failed: int, attempted: int, setup_s: float) -> dict:
    latencies = [
        max(r.seconds, r.op.deadline) if r.error else r.seconds
        for _, results in passes
        for r in results
    ]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(w for w, _ in passes), "s"),
        "op_p50_s": (quantile(latencies, 0.5), "s"),
        "op_p90_s": (quantile(latencies, 0.9), "s"),
        "ops_ok_frac": ((attempted - failed) / attempted, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(workload: str, seed: int, passes, failures: list[str]) -> dict:
    import numpy

    digests: dict[str, list[str]] = {}
    seconds: dict[str, list[float]] = {}
    for _, results in passes:
        for r in results:
            d = hashlib.sha256(r.stdout.encode()).hexdigest()
            if d not in digests.setdefault(r.op.name, []):
                digests[r.op.name].append(d)
            seconds.setdefault(r.op.name, []).append(r.seconds)
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "deadline_s": DEADLINES[workload],
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "passes": len(passes),
        "op_samples": sum(len(results) for _, results in passes),
        "failures": failures[:50],
        "op_seconds": seconds,
        "stdout_sha256": digests,
    }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def evaluate(passes, refs: References) -> tuple[int, int, int, list[str]]:
    """(attempted, failed, wrong, failure notes) over all op results."""
    attempted = failed = wrong = 0
    notes = []
    for _, results in passes:
        for r in results:
            attempted += 1
            problem = r.error
            if problem is None:
                problem = check(r, refs)
                if problem is not None:
                    wrong += 1
            if problem is not None:
                failed += 1
                notes.append(f"{r.op.name}: {problem}")
    return attempted, failed, wrong, notes


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: dict = SIZES,
        setup_probes: int = SETUP_PROBES) -> tuple[dict, dict]:
    """One benchmark run; returns (run record, result object)."""
    cli = load_cli()
    ops = build_ops(workload, seed, sizes)
    refs = References(cli)
    for f in FAMILIES:  # warm first-call paths outside the timed region
        run_op(cli, Op("warmup", "solve", f, ("solve", "--family", f, "--q", "2"), 60.0))

    if trace:
        plain = measure(cli, ops, seconds / 2.0)
        with tracing.Tracer() as tracer:
            traced = measure(cli, ops, seconds / 2.0)
        passes = plain + traced
    else:
        # Half the set-up probes run before the passes and half after, so one
        # slow spell of a shared machine skews fewer of them.
        setup = measure_setup(workload, seed, setup_probes // 2)
        passes = measure(cli, ops, seconds)
        setup += measure_setup(workload, seed, setup_probes - setup_probes // 2)

    attempted, failed, wrong, notes = evaluate(passes, refs)
    if trace:
        overhead = (statistics.median(w for w, _ in traced)
                    / statistics.median(w for w, _ in plain) - 1.0)
        metrics = tracer.metrics(len(traced), overhead)
    else:
        metrics = end_to_end_metrics(passes, failed, attempted, statistics.median(setup))
    record = run_record(workload, seed, passes, notes)
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return record, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
