#!/usr/bin/env python3
"""The amplecones benchmark: one command, four closed-loop workloads.

    python3 bench/run.py --workload domains --seed 1 --seconds 20 --trace 0

Run from the repository root (or anywhere: paths are resolved from this
file).  The library is imported from ``src/``; nothing is installed.  One
process, one caller: each op starts when the previous one has returned and
been checked.  The last line of stdout is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; with ``--trace 0`` the metrics are
the end-to-end ones of BENCHMARK.json, with ``--trace 1`` the per-layer
ones.  A diagnostics record precedes it and is also written under
``.bench_out/``.  See bench/README.md for the definitions.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

SETUP_SHOTS = 13  # set-up is timed this often (twelve fresh processes and this one)
MIN_OPS = 100  # so that op_ms_p90 has at least ten samples beyond it
LOOP_CAP_S = 100.0
SIDE_SECONDS = 2.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-shot", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


class SpeedProbe:
    """A fixed stdlib-only Fraction loop of about 0.3 ms, read right before
    and right after every timed op and set-up.

    On shared two-core virtual machines the speed of the core drifts by up
    to 2x, in spells of a fraction of a second and in phases lasting
    minutes; process CPU time drifts with it, since no time is stolen.  An
    op's time divided by the probe's time around it barely moves with the
    drift, so times are reported at the reference speed: the wall time
    multiplied by REFERENCE_S over the probe readings around it.
    """

    REFERENCE_S = 0.25e-3  # the probe on an undisturbed 2.1 GHz Xeon core

    def __init__(self) -> None:
        self.readings = []

    def read(self) -> float:
        start = time.perf_counter()
        for k in range(1, 101):
            (Fraction(k, k + 1) * Fraction(k + 2, k + 3)).numerator
        elapsed = time.perf_counter() - start
        self.readings.append(elapsed)
        return elapsed

    def scale(self, *readings) -> float:
        return self.REFERENCE_S / statistics.median(readings)

    def machine_speed(self) -> float:
        """Seconds of 200 readings: the diagnostic machine-speed probe taken
        before and after each workload."""
        return sum(self.read() for _ in range(200))


def timed_setup(name: str, seed: int, workdir: Path):
    """From just before ``import amplecones`` to the first timed op, as wall
    seconds and at the reference speed."""
    speed = SpeedProbe()
    before = [speed.read() for _ in range(3)]
    start = time.perf_counter()
    import amplecones

    workload = WORKLOADS[name](amplecones, seed, workdir)
    gc.collect()
    wall = time.perf_counter() - start
    after = [speed.read() for _ in range(3)]
    return wall, wall * speed.scale(*before, *after), workload


def setup_in_child(name: str, seed: int) -> tuple:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-shot", "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    wall, scaled = done.stdout.split()[-2:]
    return float(wall), float(scaled)


def percentile(sorted_values, q: float) -> float:
    """Nearest rank: the smallest value with at least q of the sample at or
    below it."""
    rank = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[int(rank) - 1]


class Loop:
    """Closed-loop runner over whole cycles of a workload's op stream."""

    def __init__(self, workload, tracer=None) -> None:
        self.wl, self.tracer = workload, tracer
        self.speed = SpeedProbe()
        self.ops = []  # (cycle, label, wall seconds, ok, traced, seconds at the reference speed)
        self.tokens = []
        self.failures = []

    def timed(self, inp, label: str, traced: bool):
        """Time one op: (wall seconds, seconds at the reference speed, result, error)."""
        context = self.tracer.span(f"op.{self.wl.name}.{label}") if traced else nullcontext()
        result, error = None, None
        before = self.speed.read()
        t0 = time.perf_counter()
        try:
            with context:
                result = self.wl.op(inp)
        except Exception as exc:  # a library failure is a failed op, not a crash
            error = exc
        elapsed = time.perf_counter() - t0
        after = self.speed.read()
        return elapsed, elapsed * self.speed.scale(before, after), result, error

    def run(self, seconds: float, traced_cycles, min_ops: int) -> None:
        wl, tracer = self.wl, self.tracer
        inputs, cycle = wl.first_cycle, 0
        start = time.perf_counter()
        while True:
            traced = traced_cycles(cycle)
            if traced:
                tracer.install()
            for inp in inputs:
                label = wl.label(inp)
                if traced:
                    tracer.op_id += 1
                elapsed, scaled, result, error = self.timed(inp, label, traced)
                ok = error is None
                if ok:
                    try:
                        token = wl.check(inp, result)
                        if traced:
                            wl.probe(tracer, inp, result)
                    except Exception as exc:  # a wrong answer or a failed probe call
                        ok, error = False, exc
                if not ok:
                    token = f"FAILED {label}: {type(error).__name__}: {error}"
                    self.failures.append(token)
                self.tokens.append(token)
                self.ops.append((cycle, label, elapsed, ok, traced, scaled))
                if self.overdue(start, seconds, min_ops):
                    break
            if traced:
                tracer.uninstall()
            cycle += 1
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and len(self.ops) >= min_ops) or self.overdue(start, seconds, min_ops):
                return
            inputs = wl.cycle(cycle)

    def overdue(self, start: float, seconds: float, min_ops: int) -> bool:
        """Whole cycles keep the op mix fixed, but on a slowed-down machine a
        run stops mid-cycle at 1.5x its length (or at LOOP_CAP_S)."""
        elapsed = time.perf_counter() - start
        return (elapsed >= 1.5 * seconds and len(self.ops) >= min_ops) or elapsed >= LOOP_CAP_S

    def complete_cycles(self, scaled: bool = True) -> dict:
        """cycle -> (ops, validated ops, summed seconds, traced), whole cycles only."""
        cycles = {}
        for cycle, _, wall, ok, traced, at_reference in self.ops:
            n, n_ok, total, _ = cycles.get(cycle, (0, 0, 0.0, traced))
            cycles[cycle] = (n + 1, n_ok + ok, total + (at_reference if scaled else wall), traced)
        size = len(self.wl.first_cycle)
        return {c: v for c, v in cycles.items() if v[0] == size}

    def cycle_times(self, traced: bool) -> list:
        return [total for _, _, total, was in self.complete_cycles().values() if was == traced]

    def end_to_end(self, scaled: bool = True) -> dict:
        """The timed metrics at the reference speed (or in wall time)."""
        latencies = sorted(op[5] if scaled else op[2] for op in self.ops)
        ok = sum(op[3] for op in self.ops)
        cycles = {c: (n_ok, total) for c, (_, n_ok, total, _) in self.complete_cycles(scaled).items()}
        cycles = cycles or {0: (ok, sum(latencies))}  # a run cut short before one whole cycle
        return {
            "ops_per_s": statistics.median(n / total for n, total in cycles.values()),
            "op_ms_p50": percentile(latencies, 0.5) * 1e3,
            "op_ms_p90": percentile(latencies, 0.9) * 1e3,
            "ok_ratio": ok / len(self.ops),
        }

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.tokens).encode()).hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "amplecones" / "__init__.py").is_file():
        print(f"error: the amplecones sources are not at {SRC / 'amplecones'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"work-{os.getpid()}"
    try:
        if args.setup_shot:
            wall, scaled, _ = timed_setup(args.workload, args.seed, workdir)
            print(repr(wall), repr(scaled))
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    compileall.compile_dir(str(SRC / "amplecones"), quiet=1)  # keep bytecode compilation out of set-up
    OUT.mkdir(exist_ok=True)
    speed_before = SpeedProbe().machine_speed()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    if args.trace:
        loops, metrics = traced_run(args, workdir, record)
        wanted = spec["per_layer"]
    else:
        shots = [setup_in_child(args.workload, args.seed) for _ in range(SETUP_SHOTS - 1)]
        wall, scaled, workload = timed_setup(args.workload, args.seed, workdir)
        shots.append((wall, scaled))
        loop = Loop(workload)
        loop.run(args.seconds, lambda cycle: False, MIN_OPS)
        loops = [loop]
        metrics = loop.end_to_end()
        metrics["setup_s"] = statistics.median(scaled for _, scaled in shots)
        metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record["setup_shots_s"] = [scaled for _, scaled in shots]
        record["wall_clock"] = dict(loop.end_to_end(scaled=False), setup_s=statistics.median(wall for wall, _ in shots))
        wanted = spec["end_to_end"]
    record["machine_probe_s"] = [speed_before, SpeedProbe().machine_speed()]
    main_loop = loops[0]
    record["ops"] = len(main_loop.ops)
    probes = sorted(main_loop.speed.readings)
    record["speed_probe_ms"] = {q: percentile(probes, f) * 1e3 for q, f in (("p10", 0.1), ("p50", 0.5), ("p90", 0.9))}
    record["cycles"] = len({op[0] for op in main_loop.ops})
    record["verdict_digest"] = main_loop.digest()
    failures = [f for loop in loops for f in loop.failures]
    record["failures"] = failures[:20]
    attempted = sum(len(loop.ops) for loop in loops)

    missing = [m["name"] for m in wanted if metrics.get(m["name"]) is None]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record["result"] = result
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for failure in failures[:5]:
        print(failure, file=sys.stderr)
    print(json.dumps({"record": {k: v for k, v in record.items() if k not in ("result", "layers")}}))
    print(json.dumps(result))
    return 0


def traced_run(args, workdir: Path, record: dict):
    """Trace the named workload in every other cycle (the cycles between run
    without wrappers and give the tracing overhead), then give each other
    workload a short traced side run so that every layer is measured."""
    import amplecones

    tracer = tracing.Tracer(amplecones)
    loops = []
    for name in [args.workload] + [w for w in WORKLOADS if w != args.workload]:
        tracer.install()
        workload = WORKLOADS[name](amplecones, args.seed, workdir / name)
        tracer.uninstall()
        loop = Loop(workload, tracer)
        if name == args.workload:
            loop.run(args.seconds, lambda cycle: cycle % 2 == 1, 2 * MIN_OPS)
        else:
            loop.run(SIDE_SECONDS, lambda cycle: True, len(workload.first_cycle))
        loops.append(loop)
    main_loop = loops[0]
    traced = statistics.fmean(main_loop.cycle_times(True))
    plain = statistics.fmean(main_loop.cycle_times(False))
    tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.tsv.gz")
    record["layers"] = tracer.self_times()
    record["spans"] = len(tracer.spans)
    metrics = tracer.layer_metrics(traced / plain)
    return loops, metrics


if __name__ == "__main__":
    sys.exit(main())
