"""Smoke test of the benchmark itself; takes a few seconds:

    python3 perfbench/smoke.py

It runs every workload with tiny budgets, untraced and traced, and checks
that the last line names exactly the metrics of BENCHMARK.json with their
units; that a corrupted answer makes an op count as failed and keeps its
timing out of the metrics; that a traced op fails when tracing slows it
beyond the bound; and that the benchmark refuses to run, without a
result line, where the checkout holds no pdflow sources.  Exits 0 when all
checks pass.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import run
from workloads import WORKLOADS, ConnRing10, Lp5Euler, Qp600Rk4

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY_BUDGETS = {
    "lp5-euler": dict(max_steps=2_000, warmup_steps=10),
    "qp600-rk4": dict(n=30, m=5, warmup_steps=5),
    "conn-ring10": dict(rounds=30, warmup_rounds=2),
    "conn-n40": dict(rounds=3, warmup_rounds=1),
}


@dataclass(frozen=True)
class UncheckedLp5(Lp5Euler):
    """Example 2 needs ~420k steps to converge, far beyond a smoke budget;
    this variant accepts any answer so the metric plumbing can be checked."""

    def check(self, program, inputs, result) -> list:
        return []


@dataclass(frozen=True)
class CorruptedQp(Qp600Rk4):
    """Moves the first measured op's answer outside the set and makes that
    op slow; the warm-up op, with its cut budget, is left alone."""

    done: ClassVar[bool] = False

    def run(self, program, inputs):
        result = super().run(program, inputs)
        if not CorruptedQp.done and self.max_steps != self.warmup_steps:
            CorruptedQp.done = True
            time.sleep(1.0)
            final = program.flow.FlowState(x=result.final.x + 2.0, v=result.final.v)
            result = dataclasses.replace(result, final=final)
        return result


@dataclass(frozen=True)
class CorruptedRing(ConnRing10):
    """Reports a final lambda2 one part in 1e12 off the network it returns."""

    def run(self, program, inputs):
        network, history = super().run(program, inputs)
        history[-1] = history[-1]._replace(lambda2=history[-1].lambda2 * (1 + 1e-12))
        return network, history


class SlowTracer(run.Tracer):
    """Adds 1 ms to every span it wraps: on a tiny op, far more than the
    tracing overhead the benchmark accepts."""

    def wrap(self, name, fn):
        traced = super().wrap(name, fn)

        def slow(*args, **kwargs):
            time.sleep(1e-3)
            return traced(*args, **kwargs)

        return slow


def scratch_dir() -> Path:
    """Where the smoke test puts its files: the benchmark's ignored output directory."""
    run.OUT_ROOT.mkdir(exist_ok=True)
    return run.OUT_ROOT


def tiny(workload_cls=None, name=None, **extra):
    base = WORKLOADS[name]
    cls = workload_cls or type(base)
    return cls(**{**dataclasses.asdict(base), **TINY_BUDGETS[name], **extra})


def main_lines(workloads, *argv) -> tuple[int, list]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv), workloads=workloads)
    return code, out.getvalue().splitlines()


def check_metrics_emitted() -> None:
    table = {name: tiny(name=name) for name in WORKLOADS}
    table["lp5-euler"] = tiny(UncheckedLp5, "lp5-euler")
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        for name in table:
            code, lines = main_lines(
                table, "--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)
            )
            assert code == 0, (name, trace, lines)
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, (name, trace, lines)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected, (name, trace, sorted(set(got) ^ set(expected)))
            assert any(line.startswith("machine: ") for line in lines)
            print(f"ok: {name} --trace {trace} emits {len(got)} metrics")


def check_failures_counted() -> None:
    # an unconverged solve is a failed op, and with no good op there is no result
    code, lines = main_lines(
        {"lp5-euler": tiny(name="lp5-euler")},
        "--workload", "lp5-euler", "--seed", "1", "--seconds", "0.1",
    )
    assert code != 0 and not lines[-1].startswith("{"), lines
    assert "not converged" in "\n".join(lines)

    for workload in (tiny(CorruptedQp, "qp600-rk4"), tiny(CorruptedRing, "conn-ring10")):
        CorruptedQp.done = False
        with tempfile.TemporaryDirectory(dir=scratch_dir()) as tmp:
            measured = run.measure(workload, seed=1, seconds=4.0, trace=False, out_dir=Path(tmp))
        ops = measured["ops"]
        bad = [op for op in ops if not op.ok]
        assert bad and all(op.problems for op in bad), workload.name
        if isinstance(workload, CorruptedQp):
            # only the first op is corrupted, and its slow timing is not used
            assert len(bad) == 1 and len(ops) >= 2, len(ops)
            reported = run.end_to_end_metrics(measured)["solve_s"]["value"]
            assert reported == statistics.median(op.solve_adjusted_s for op in ops if op.ok)
            assert reported < bad[0].solve_adjusted_s
        else:
            assert len(bad) == len(ops)
        print(f"ok: {workload.name}: {len(bad)} of {len(ops)} corrupted ops counted as failed")


def check_trace_overhead_bounded() -> None:
    original = run.Tracer
    run.Tracer = SlowTracer
    try:
        with tempfile.TemporaryDirectory(dir=scratch_dir()) as tmp:
            measured = run.measure(
                tiny(name="conn-ring10"), seed=1, seconds=1.0, trace=True, out_dir=Path(tmp)
            )
    finally:
        run.Tracer = original
    traced = measured["traced_ops"]
    assert all(op.ok for op in measured["ops"])
    assert traced and not any(op.ok for op in traced), [op.problems for op in traced]
    assert all("tracing overhead" in "; ".join(op.problems) for op in traced)
    print(f"ok: conn-ring10: {len(traced)} of {len(traced)} slowly traced ops counted as failed")


def check_refuses_without_program() -> None:
    with tempfile.TemporaryDirectory(dir=scratch_dir()) as tmp:
        shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "lp5-euler",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
    assert proc.returncode != 0, proc
    assert not proc.stdout.strip().startswith("{") and '"correct"' not in proc.stdout, proc.stdout
    print(f"ok: without src/ the benchmark exits {proc.returncode}: {proc.stderr.strip()}")


if __name__ == "__main__":
    check_metrics_emitted()
    check_failures_counted()
    check_trace_overhead_bounded()
    check_refuses_without_program()
    print("smoke test passed")
