"""pdflow benchmark: time-to-tolerance and round throughput of ``solve`` and
``simulate`` on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a pdflow checkout; it imports pdflow from ``src/``
of that checkout and nothing else.  Each run is one process that:

1. draws the workload's inputs from ``--seed``;
2. sets up once and runs one op with a cut step budget, discarded, so that
   byte-compiling, the shared-library loads and the first LAPACK call are not
   counted;
3. sets up ``SETUPS`` more times (re-importing pdflow each time) and reports
   the median as ``setup_s``;
4. runs ops in a closed loop, one at a time, and starts another only while
   it is expected to end within ``--seconds``;
5. times set-ups and ops against a reference kernel that tracks the host's
   speed (see ``hostspeed.py``), and reports host-adjusted times;
6. checks every op's answer; an op whose check fails or that raises counts
   as failed and its timings are not used.

With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` each loop iteration runs an untraced op and then a traced op
on the same inputs; the traced op must reproduce the untraced op's result
bit for bit, and its solve may be longer than the untraced one by at most
``TRACE_OVERHEAD_BOUND`` of it, or it counts as failed.  The last line then
holds the per-layer metrics, host-adjusted like ``solve_s``.  Human-readable
lines (machine facts, per-op figures, fail rate) come before the last line.
See README.md in this directory for every metric.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads, so runs do not depend on the
# machine's default or contend with themselves.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
PROGRAM_MODULES = (
    "pdflow",
    "pdflow.flow",
    "pdflow.sets",
    "pdflow.spectral",
    "pdflow.graphs",
    "pdflow.connectivity",
    "pdflow.presets",
    "pdflow.cli",
)
SETUPS = 7
# A traced solve may take at most this share of the untraced solve longer.
# Beyond it the tracer's own time would exceed pdflow's, and the layer times
# would describe the tracer.  Pairs of ops differ by up to ~25% from noise
# alone, so a tighter bound would fail sound runs.
TRACE_OVERHEAD_BOUND = 1.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "total_s": "s",
    "iters": "count",
    "iters_per_s": "1/s",
    "residual": "1",
    "peak_rss_mb": "MB",
}


class ProgramMissing(RuntimeError):
    """The checkout holds no pdflow sources to benchmark."""


def import_program() -> types.SimpleNamespace:
    """Import pdflow afresh from ``src/`` and return its modules by short name."""
    if not (SRC / "pdflow" / "__init__.py").is_file():
        raise ProgramMissing(f"no pdflow package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    # Load byte-compiled modules as an installed package would, whatever
    # PYTHONDONTWRITEBYTECODE says: compiling from source would add ~25 ms to
    # every set-up.  The warm-up set-up writes the cache.
    sys.dont_write_bytecode = False
    sys.pycache_prefix = None
    for name in [m for m in sys.modules if m == "pdflow" or m.startswith("pdflow.")]:
        del sys.modules[name]
    modules = {name.rpartition(".")[2]: importlib.import_module(name) for name in PROGRAM_MODULES}
    if Path(modules["pdflow"].__file__).resolve().parent != (SRC / "pdflow").resolve():
        raise ProgramMissing(f"pdflow was imported from {modules['pdflow'].__file__}, not {SRC}")
    return types.SimpleNamespace(**modules)


def timed(host, fn, *args):
    """Call ``fn(*args)``; return ``(result, raw_s, adjusted_s)``.

    Without a :class:`HostSpeed` the adjusted time is the raw time.
    """
    if host is not None:
        return host.measure(fn, *args)
    start = perf_counter()
    result = fn(*args)
    elapsed = perf_counter() - start
    return result, elapsed, elapsed


def scaled(stats: dict, factor: float) -> dict:
    """Span figures ``[calls, inclusive s, self s]`` with the times scaled."""
    return {
        name: [calls, incl * factor, own * factor] for name, (calls, incl, own) in stats.items()
    }


@dataclass
class Setup:
    """One set-up; every time in it is host-adjusted."""

    import_s: float
    build_s: float
    adjusted_s: float
    stats: dict


def set_up(workload, raw, tracer, host=None):
    """Import pdflow and build the workload's inputs, timing both halves."""
    clock = host.clock if host is not None else perf_counter

    def import_and_build():
        start = clock()
        program = import_program()
        imported = clock()
        tracer.reset()
        inputs = workload.build(program, raw, tracer)
        return program, inputs, imported - start, clock() - imported

    (program, inputs, import_s, build_s), raw_s, adjusted = timed(host, import_and_build)
    factor = adjusted / raw_s
    setup = Setup(import_s * factor, build_s * factor, adjusted, scaled(tracer.snapshot(), factor))
    return program, inputs, setup


@dataclass
class Op:
    """One op; ``stats`` holds its span figures, host-adjusted."""

    ok: bool
    problems: list
    solve_s: float = 0.0
    write_s: float = 0.0
    solve_adjusted_s: float = 0.0
    write_adjusted_s: float = 0.0
    outcome: object = None
    rows: int = 0
    bytes_written: int = 0
    stats: dict = field(default_factory=dict)


def run_op(workload, program, inputs, out_dir: Path, tracer=NullTracer(), host=None) -> Op:
    """One op: solve or simulate, then write the CSVs; then check the answer.

    With a tracer, pdflow's layers are wrapped for the solve and the write
    only; the answer check always runs on the original functions.
    """
    tracer.install(program, objective=getattr(getattr(inputs, "problem", None), "objective", None))
    tracer.reset()
    try:
        result, solve_s, solve_adjusted = timed(
            host, tracer.call, workload.root_span, workload.run, program, inputs
        )
        stats = scaled(tracer.snapshot(), solve_adjusted / solve_s)
        tracer.reset()
        rows, write_s, write_adjusted = timed(
            host, tracer.call, "cli.write", workload.write, program, inputs, result, out_dir
        )
        stats.update(scaled(tracer.snapshot(), write_adjusted / write_s))
    except Exception as err:  # an op that raises is a failed op; keep measuring
        traceback.print_exc(file=sys.stderr)
        return Op(ok=False, problems=[f"{type(err).__name__}: {err}"])
    finally:
        tracer.restore()
    try:
        problems = workload.check(program, inputs, result)
    except Exception as err:  # a check that cannot even inspect the answer fails it
        traceback.print_exc(file=sys.stderr)
        problems = [f"check raised {type(err).__name__}: {err}"]
    return Op(
        ok=not problems,
        problems=problems,
        solve_s=solve_s,
        write_s=write_s,
        solve_adjusted_s=solve_adjusted,
        write_adjusted_s=write_adjusted,
        outcome=workload.outcome(result),
        rows=rows,
        bytes_written=sum(p.stat().st_size for p in out_dir.iterdir()),
        stats=stats,
    )


def measure(workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Everything one run measures, before it is turned into metrics.

    Set-ups and ops are timed against a :class:`HostSpeed` reference.  The
    tracers read its clock, which stops while its kernel runs, so that no
    span counts the kernel's time.
    """
    raw = workload.generate(seed)
    warm = workload.warmup()
    program, inputs, _ = set_up(warm, raw, NullTracer())
    run_op(warm, program, inputs, out_dir)

    host = HostSpeed()
    setup_tracer = Tracer(host.clock) if trace else NullTracer()
    setups = []
    for _ in range(SETUPS):
        program, inputs, setup = set_up(workload, raw, setup_tracer, host)
        setups.append(setup)

    tracer = Tracer(host.clock)
    ops, traced_ops, rounds = [], [], []
    start = perf_counter()
    while True:
        began = perf_counter()
        ops.append(run_op(workload, program, inputs, out_dir, host=host))
        if trace:
            traced = run_op(workload, program, inputs, out_dir, tracer, host)
            compare_traced(traced, ops[-1])
            traced_ops.append(traced)
        rounds.append(perf_counter() - began)
        if perf_counter() - start + statistics.median(rounds) > seconds:
            break
    return {
        "inputs": inputs,
        "setups": setups,
        "ops": ops,
        "traced_ops": traced_ops,
        "measured_s": perf_counter() - start,
    }


def compare_traced(traced: Op, untraced: Op) -> None:
    """Fail a traced op that does not reproduce the untraced op it follows,
    or whose tracing overhead exceeds ``TRACE_OVERHEAD_BOUND``."""
    if traced.outcome is None or untraced.outcome is None:
        return
    if traced.outcome != untraced.outcome:
        traced.ok = False
        traced.problems.append(
            f"traced result {traced.outcome} differs from untraced {untraced.outcome}"
        )
    overhead = traced.solve_adjusted_s / untraced.solve_adjusted_s - 1.0
    if overhead > TRACE_OVERHEAD_BOUND:
        traced.ok = False
        traced.problems.append(
            f"tracing overhead {overhead:.0%} of the untraced solve exceeds "
            f"{TRACE_OVERHEAD_BOUND:.0%}"
        )


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end_metrics(run: dict) -> dict:
    good = [op for op in run["ops"] if op.ok]
    setup_s = _median(s.adjusted_s for s in run["setups"])
    values = {
        "setup_s": setup_s,
        "solve_s": _median(op.solve_adjusted_s for op in good),
        "total_s": setup_s + _median(op.solve_adjusted_s + op.write_adjusted_s for op in good),
        "iters": _median(op.outcome.iters for op in good),
        "iters_per_s": _median(op.outcome.iters / op.solve_adjusted_s for op in good),
        "residual": _median(op.outcome.residual for op in good),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


# Per-layer metrics read from spans: name -> (span, field).  Figures are per
# op: "calls" counts spans, "self" sums their self seconds.
LAYER_SPANS = {
    "flow.self_s": ("flow.solve", "self"),
    "sets.project_calls": ("sets.project", "calls"),
    "sets.project_s": ("sets.project", "self"),
    "sets.tangent_calls": ("sets.tangent", "calls"),
    "sets.tangent_s": ("sets.tangent", "self"),
    "sets.membership_calls": ("sets.membership", "calls"),
    "sets.membership_s": ("sets.membership", "self"),
    "flow.grad_calls": ("flow.grad", "calls"),
    "flow.grad_s": ("flow.grad", "self"),
    "flow.kkt_calls": ("flow.kkt", "calls"),
    "flow.record_calls": ("flow.record", "calls"),
    "flow.record_s": ("flow.record", "self"),
    "connectivity.self_s": ("connectivity.simulate", "self"),
    "connectivity.assemble_s": ("connectivity.assemble", "self"),
    "connectivity.residual_s": ("connectivity.residual", "self"),
    "connectivity.update_s": ("connectivity.update", "self"),
    "connectivity.record_s": ("connectivity.record", "self"),
    "spectral.grad_calls": ("spectral.grad", "calls"),
    "spectral.grad_s": ("spectral.grad", "self"),
    "spectral.value_calls": ("spectral.value", "calls"),
    "spectral.value_s": ("spectral.value", "self"),
    "graphs.lambda2_calls": ("graphs.lambda2", "calls"),
    "graphs.lambda2_s": ("graphs.lambda2", "self"),
    "cli.write_s": ("cli.write", "self"),
}
_FIELD = {"calls": 0, "incl": 1, "self": 2}


def _unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    return {"cli.bytes_written": "B", "connectivity.lambda2": "1"}.get(name, "count")


def per_layer_metrics(workload, run: dict) -> dict:
    traced = [op for op in run["traced_ops"] if op.ok]
    plain = [op for op in run["ops"] if op.ok]

    def per_op(span: str, kind: str) -> float:
        return sum(op.stats.get(span, (0, 0.0, 0.0))[_FIELD[kind]] for op in traced) / len(traced)

    values = {name: per_op(span, kind) for name, (span, kind) in LAYER_SPANS.items()}
    untraced_solve = statistics.fmean(op.solve_adjusted_s for op in plain)
    traced_solve = statistics.fmean(op.solve_adjusted_s for op in traced)
    iters = plain[0].outcome.iters
    is_flow = workload.root_span == "flow.solve"
    grad_calls = values["spectral.grad_calls"]
    graph = getattr(run["inputs"], "graph", None)
    values.update(
        {
            "flow.step_us": untraced_solve / iters * 1e6 if is_flow and iters else 0.0,
            "connectivity.round_us": untraced_solve / iters * 1e6 if not is_flow and iters else 0.0,
            "connectivity.msg_floats_per_round": (
                workload.msg_floats_per_round(graph) if graph is not None else 0
            ),
            "connectivity.lambda2": plain[0].outcome.lambda2 or 0.0,
            "spectral.grad_us": (
                per_op("spectral.grad", "incl") / grad_calls * 1e6 if grad_calls else 0.0
            ),
            "graphs.build_s": _median(
                s.stats.get("graphs.build", (0, 0.0, 0.0))[1] for s in run["setups"]
            ),
            "setup.import_s": _median(s.import_s for s in run["setups"]),
            "setup.build_s": _median(s.build_s for s in run["setups"]),
            "cli.bytes_written": _median(op.bytes_written for op in traced),
            "cli.rows": _median(op.rows for op in traced),
            "trace.solve_s": traced_solve,
            "trace.overhead_s": traced_solve - untraced_solve,
        }
    )
    return {name: {"value": values[name], "unit": _unit(name)} for name in sorted(values)}


def machine_facts(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, AttributeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
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


def report(workload, args, run: dict, metrics: dict) -> dict:
    """Print the human-readable lines and return the result object."""
    ops = run["ops"] + run["traced_ops"]
    failed = [op for op in ops if not op.ok]
    print(f"workload: {workload.name}")
    print("machine: " + json.dumps(machine_facts(args.seed)))
    for kind, group in (("op", run["ops"]), ("traced op", run["traced_ops"])):
        for i, op in enumerate(group, start=1):
            status = "ok" if op.ok else "FAILED: " + "; ".join(op.problems)
            detail = ""
            if op.outcome is not None:
                o = op.outcome
                detail = f" solve {op.solve_s:.4f} s (host-adjusted {op.solve_adjusted_s:.4f} s)"
                detail += f", write {op.write_s:.4f} s, iters {o.iters}, residual {o.residual!r}"
                if o.lambda2 is not None:
                    detail += f", lambda2 {o.lambda2!r}"
            print(f"{kind} {i}:{detail} -- {status}")
    print(
        f"ops: attempted {len(ops)}, failed {len(failed)}, "
        f"fail_rate {len(failed) / len(ops):.3f}, measured {run['measured_s']:.2f} s"
    )
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    if "trace.solve_s" in metrics:
        # every span inside the solve is a child of its root span, so the
        # self times partition the traced solve; they describe the untraced
        # solve to within the overhead, which each traced op has kept below
        # TRACE_OVERHEAD_BOUND
        parts = sum(
            metrics[name]["value"]
            for name, (span, kind) in LAYER_SPANS.items()
            if kind == "self" and span != "cli.write"
        )
        traced = metrics["trace.solve_s"]["value"]
        overhead = metrics["trace.overhead_s"]["value"]
        untraced = traced - overhead
        print(
            f"trace: layer self times sum to {parts:.4f} s per op (traced solve {traced:.4f} s); "
            f"untraced solve {untraced:.4f} s; overhead {overhead:+.4f} s = "
            f"{overhead / untraced:+.1%} (bound {TRACE_OVERHEAD_BOUND:.0%} per op)"
        )
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv=None, workloads=WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    workload = workloads[args.workload]
    OUT_ROOT.mkdir(exist_ok=True)
    out_dir = OUT_ROOT / f"run-{os.getpid()}"
    out_dir.mkdir()
    try:
        run = measure(workload, args.seed, args.seconds, bool(args.trace), out_dir)
    except ProgramMissing as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            OUT_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    usable = [op for op in run["ops"] if op.ok]
    if args.trace:
        usable = usable and [op for op in run["traced_ops"] if op.ok]
    if not usable:
        report(workload, args, run, {})
        print("error: no op succeeded, so there is nothing to report", file=sys.stderr)
        return 1
    metrics = per_layer_metrics(workload, run) if args.trace else end_to_end_metrics(run)
    result = report(workload, args, run, metrics)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
