"""Benchmark of the flowent engine, run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up imports the engine from ``src/``, builds the workload's field towers
and flows, and writes their spec files; it runs SETUP_REPS times before the
timed rounds and SETUP_REPS times after them, and the median is reported.
The run calls ``flowent.cli.main`` once per flow, in process, in whole
rounds of the workload's fixed flow set, and starts another round only
while it still fits in ``--seconds``.  Every report is checked against a
reference computed from the flow's definition.

The machine's speed drifts by 20% and more over seconds to minutes, so an
untraced run samples it all through: a timer runs a probe, a short fixed
piece of work that calls no engine code, every PROBE_EVERY_S, and the
end-to-end times are scaled to the speed at which one probe takes
PROBE_REF_S (see ``probe`` and ``Clock``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The run's result,
per-flow times, problems found and spans go to ``bench/_out/``.
"""

import os

# One process; BLAS gets one thread.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy

import workloads
from checks import WRONG_VALUE, Verdict
from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
SETUP_REPS = 4
#: The probe's pure-Python loop iterations and 64 x 64 matrix products, the
#: probe time that counts as reference speed, and how often the probe runs.
PROBE_LOOPS = 10_000
PROBE_PRODUCTS = 3
PROBE_REF_S = 0.002
PROBE_EVERY_S = 0.05
_PROBE_MATRIX = numpy.arange(64 * 64, dtype=numpy.int64).reshape(64, 64) % 4


def probe() -> float:
    """Time a fixed piece of work that touches no engine code.

    It does the engine's two kinds of work in equal shares: an integer loop
    in the interpreter, and small integer matrix products in numpy.  Either
    alone follows the machine's speed less closely than both.
    """
    t = perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    for _ in range(PROBE_PRODUCTS):
        _PROBE_MATRIX @ _PROBE_MATRIX % 4
    return perf_counter() - t


class Clock:
    """Times operations and scales their times to the reference machine speed.

    When probing, a timer signal runs ``probe`` every PROBE_EVERY_S, also in
    the middle of a flow: Python runs the handler between two bytecodes of
    the main thread.  An operation's own time is its wall time less the
    probes that ran inside it.  The mean of those probes and of the one on
    either side, over PROBE_REF_S, is the machine's slowdown while it ran.
    """

    def __init__(self, probing: bool):
        self.probing = probing
        self.probes: list[float] = []
        # per operation: (own seconds, index of its first probe, index past its last)
        self.ops: list[tuple[float, int, int]] = []
        if probing:
            self._tick()
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def _tick(self, *_) -> None:
        self.probes.append(probe())

    def stop(self) -> None:
        if self.probing:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._tick()
            self.probing = False

    def time(self, fn, *args):
        """Run ``fn(*args)``; return (its own seconds, its result)."""
        first = len(self.probes)
        t = perf_counter()
        result = fn(*args)
        wall = perf_counter() - t
        end = len(self.probes)
        own = wall - sum(self.probes[first:end])
        self.ops.append((own, first, end))
        return own, result

    def scaled(self, op: int) -> float:
        """Own time of operation ``op`` at reference speed (after ``stop``)."""
        own, first, end = self.ops[op]
        return own * PROBE_REF_S / statistics.fmean(self.probes[first - 1 : end + 1])


def fresh_import():
    """Import the engine anew, so that every set-up pays for its import."""
    for name in [n for n in sys.modules if n == "flowent" or n.startswith("flowent.")]:
        del sys.modules[name]
    cli = importlib.import_module("flowent.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"flowent was loaded from {cli.__file__}, not from {SRC}")
    return cli


def call(main, argv: list[str]) -> tuple[int | None, str]:
    """One ``cli.main`` call; return (exit code, stdout)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    except Exception as exc:  # a crash is a failed operation, not the end of the run
        print(f"error: {' '.join(argv)} raised {exc!r}", file=sys.stderr)
        code = None
    return code, out.getvalue()


def check(job: workloads.Job, code: int | None, stdout: str) -> Verdict:
    if code is None:
        return Verdict(problems=["raised an exception"])
    try:
        report = json.loads(stdout)
    except ValueError:
        return Verdict(problems=[f"exit code {code} with no JSON report"])
    try:
        return job.check(report, code)
    except (KeyError, TypeError, ValueError) as exc:
        return Verdict(problems=[f"malformed report: {exc!r}"])


def set_up(args, workdir: Path, tracer: Tracer | None = None):
    """One set-up; return (the fresh ``flowent.cli``, the jobs)."""
    cli = fresh_import()
    if tracer is not None:
        tracer.install()
    return cli, workloads.build(args.workload, args.seed, workdir)


def run(args, workdir: Path) -> tuple[dict, dict]:
    # the traced run is not probed: the probes would land inside its spans
    tracer = Tracer() if args.trace else None
    clock = Clock(probing=tracer is None)
    try:
        return measure(args, workdir, tracer, clock)
    finally:
        clock.stop()


def measure(args, workdir: Path, tracer: Tracer | None, clock: Clock) -> tuple[dict, dict]:
    setup_ops: list[int] = []
    for rep in range(SETUP_REPS):
        setup_ops.append(len(clock.ops))
        _, (cli, jobs) = clock.time(set_up, args, workdir, tracer if rep == SETUP_REPS - 1 else None)
    main = tracer.wrap("cli.main", cli.main) if tracer is not None else cli.main

    flow_ops: list[int] = []
    failures: list[dict] = []
    resolved_per_round: list[int] = []
    start = perf_counter()
    while True:
        round_start = perf_counter()
        resolved = 0
        for job in jobs:
            if tracer is not None:
                tracer.flow = len(flow_ops)
            flow_ops.append(len(clock.ops))
            _, (code, stdout) = clock.time(call, main, job.argv)
            if tracer is not None:
                tracer.flow = None
            verdict = check(job, code, stdout)
            resolved += verdict.resolved
            if verdict.failed:
                # a known fault is tolerated only as a wrong resolved value
                known = job.known_fault and all(p.startswith(WRONG_VALUE) for p in verdict.problems)
                failures.append({"flow": job.label, "known_fault": known, "problems": verdict.problems})
        resolved_per_round.append(resolved)
        now = perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break
    rounds = len(resolved_per_round)
    # as many set-ups again after the rounds, so that setup_s spans the run
    # and not only its first second
    for _ in range(SETUP_REPS):
        setup_ops.append(len(clock.ops))
        clock.time(set_up, args, workdir)
    clock.stop()
    times = [clock.ops[i][0] for i in flow_ops]
    setup = [clock.ops[i][0] for i in setup_ops]

    unexpected = [f for f in failures if not f["known_fault"]]
    for f in unexpected:
        print(f"FAILED {f['flow']}: {'; '.join(f['problems'])}", file=sys.stderr)
    if len(set(resolved_per_round)) > 1:
        print(f"rounds resolved different counts: {resolved_per_round}", file=sys.stderr)
    if tracer is None:
        scaled = [clock.scaled(i) for i in flow_ops]
        metrics = {
            "flows_per_s": (len(scaled) / sum(scaled), "1/s"),
            "flow_s.p50": (statistics.median(scaled), "s"),
            "flows_resolved": (resolved_per_round[0], "count"),
            "setup_s": (statistics.median(clock.scaled(i) for i in setup_ops), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = layer_metrics(tracer.spans, rounds)
        metrics["trace.flow_s"] = (sum(times) / rounds, "s")
    result = {
        "correct": not unexpected and len(set(resolved_per_round)) == 1,
        "attempted": len(times),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "flows": [j.label for j in jobs],
        "flow_times": times, "setup_times": setup, "probe_times": clock.probes,
        "raw": {"flows_per_s": len(times) / sum(times), "flow_s.p50": statistics.median(times),
                "setup_s": statistics.median(setup)},
        "failures": failures,
        "spans": tracer.spans if tracer is not None else [],
    }
    return result, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "flowent" / "__init__.py").is_file():
        print(f"error: no engine sources at {SRC / 'flowent'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = BENCH / "_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        result, detail = run(args, workdir)
    finally:
        shutil.rmtree(workdir)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    outdir = BENCH / "_out"
    outdir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (outdir / name).write_text(json.dumps({"result": result, **detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
