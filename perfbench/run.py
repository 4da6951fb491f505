"""Benchmark of the sumspace estimate and K-curve pipeline.

    python3 perfbench/run.py --workload suite1d --seed 0 --seconds 15 --trace 0

runs one workload in a closed loop (one client, one process; the next
operation starts when the previous one returns), checks every answer, and
prints as its last line a JSON object with the end-to-end metrics of
BENCHMARK.json (``--trace 0``) or its per-layer metrics (``--trace 1``).
Without ``--workload`` it runs every workload, each in a fresh process,
untraced and then traced, and prints them all.

A run makes a fixed list of inputs from the seed, as many as take about
``--seconds`` at the reference speed, and runs each once: the same seed and
seconds give the same operations, answers and failures on any host.  Every
time it reports is scaled to the reference speed with the kernel of
``speed.py``, timed in slices spread over the work; the raw wall times are
printed beside the JSON.

The package is imported from ``src/`` beside this directory and from nowhere
else; without it the benchmark exits with a non-zero code and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SETUP_REPEATS = 7  # set-up is timed in fresh processes; the median is reported
SETUP_KERNEL_S = 0.1  # kernel time run before and after each set-up

# set-up as a user pays it: interpreter start, package import, input generation
SETUP_PROBE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
wl = workloads.WORKLOADS[sys.argv[3]]
size = wl.sizes[sys.argv[5]]
for i in range(int(sys.argv[6])):
    wl.make(int(sys.argv[4]), i, size)
"""


def _import_package() -> None:
    """Import ``sumspace`` from this checkout's ``src`` or exit with code 2."""
    # one thread per process: the loop has one client and the machine is shared
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    try:
        import sumspace
    except ImportError as exc:
        print(f"perfbench: cannot import sumspace from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(sumspace.__file__).resolve().parent.parent != SRC.resolve():
        print(f"perfbench: sumspace was imported from {sumspace.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def _stage(exc: BaseException) -> str:
    """``module.function`` of the innermost package frame that raised."""
    stage = "benchmark"
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        path = Path(frame.f_code.co_filename)
        if path.parent.name == "sumspace":
            stage = f"{path.stem}.{frame.f_code.co_name}"
    return stage


class Loop:
    """Closed loop over the inputs: times, checks and fingerprints every operation."""

    def __init__(self, wl, seed: int, size, inputs: list, meter):
        self.wl, self.seed, self.size, self.inputs, self.meter = wl, seed, size, inputs, meter
        self.times: list[float] = []  # seconds per operation, in input order
        self.ok: list[bool] = []  # returned, with no invariant or pin broken
        self.answers: list = []  # the Answer, or None where the operation raised
        self.fingerprints: list[str] = []
        self.bad_answers = 0  # operations whose answer broke an invariant

    def one(self, index: int, call=None) -> None:
        from workloads import check

        inst = self.inputs[index]
        clock = self.meter.clock
        t0 = clock()
        try:
            if call is None:
                answer = self.wl.op(inst, self.size)
            else:
                answer = call(self.wl.op, inst, self.size)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.times.append(clock() - t0)
            stage, error = _stage(exc), f"{type(exc).__name__}: {exc}"
            self._print_failure(index, stage, error)
            self.ok.append(False)
            self.answers.append(None)
            self.fingerprints.append(f"raised in {stage}: {error}")
            return
        self.times.append(clock() - t0)
        wrong, over_pin = check(answer)
        for text in wrong:
            self._print_failure(index, "check", text)
        for text in over_pin:
            self._print_failure(index, "pin", text)
        self.bad_answers += bool(wrong)
        self.ok.append(not (wrong or over_pin))
        self.answers.append(answer)
        self.fingerprints.append(answer.fingerprint)

    def _print_failure(self, index: int, stage: str, error: str) -> None:
        print(f"FAIL workload={self.wl.name} seed={self.seed} index={index} stage={stage} error={error}")

    def run(self, count: int, call=None) -> None:
        """Operations on inputs 0 .. count - 1."""
        for index in range(count):
            self.one(index, call)

    def digest(self) -> str:
        """Hash of the fingerprints of every operation."""
        return hashlib.sha256("\n".join(self.fingerprints).encode()).hexdigest()


def _setup_seconds(workload: str, seed: int, size: str, count: int) -> tuple[float, float]:
    """Median set-up time, in raw and in reference seconds."""
    from speed import Meter

    meter = Meter()
    samples = []
    for _ in range(SETUP_REPEATS):
        meter.burst(SETUP_KERNEL_S)
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE), workload, str(seed), size, str(count)],
            check=True,
        )
        samples.append(time.perf_counter() - t0)
        meter.burst(SETUP_KERNEL_S)
    raw = statistics.median(samples)
    return raw, raw * meter.factor()


def _line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name} = {value:.6g} {unit}" + (f" ({note})" if note else "")


def _end_to_end(loop: Loop, setup: tuple[float, float]) -> dict[str, float]:
    """End-to-end metrics; prints them and the figures kept out of the JSON."""
    done = [t for t, ok in zip(loop.times, loop.ok) if ok]
    if not done:
        print(f"perfbench: no operation of {loop.wl.name} succeeded", file=sys.stderr)
        sys.exit(1)
    # the rate counts every operation, failed or not: how many fail varies
    # with the seed (2 to 9 of 30 K-curves), and counting only the successes
    # would swing it by up to a fifth; failures are reported in "failed" and
    # fail_ratio
    scale = loop.meter.factor()
    times = [t * scale for t in loop.times]
    metrics = {
        "setup_s": setup[1],
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    attempted = len(times)
    print(
        f"workload {loop.wl.name}: {attempted} ops attempted, {len(done)} succeeded; raw: "
        f"{sum(loop.times):.3f} s of operations, set-up {setup[0]:.4f} s, "
        f"op p50 {statistics.median(loop.times):.6g} s; {len(loop.meter.samples)} kernel timings "
        f"scale times by {scale:.4f}"
    )
    for m in SPEC["end_to_end"]:
        print(_line(m["name"], metrics[m["name"]], m["unit"], f"{m['better']} is better"))
    # figures that vary too much between seeds to gate on, printed for review
    print(_line("fail_ratio", (attempted - len(done)) / attempted, "ratio", "lower is better"))
    print(_line("op_s_p50", statistics.median(times), "s", f"lower is better; {attempted} samples"))
    if attempted >= 100:
        p90 = statistics.quantiles(times, n=10)[-1]
        beyond = sum(t > p90 for t in times)
        print(_line("op_s_p90", p90, "s", f"lower is better; {beyond} of {attempted} samples beyond it"))
    rows = [r for a, ok in zip(loop.answers, loop.ok) if ok for r in a.rows]
    brackets = [r.upper / r.lower for r in rows if r.lower > 0]
    if brackets:
        print(_line("bracket_p50", statistics.median(brackets), "ratio", f"lower is better; {len(brackets)} brackets"))
    ratios = [r.upper / r.oracle for r in rows if r.oracle is not None and r.oracle > 1e-9]
    if ratios:
        print(_line("upper_over_oracle_max", max(ratios), "ratio", f"lower is better; {len(ratios)} brackets"))
    print(f"  answers_digest ops={attempted} sha256={loop.digest()}")
    return metrics


def _per_layer(wl, seed: int, size, inputs: list, meter) -> tuple[dict[str, float], bool, list[Loop]]:
    """Per-layer metrics: input 0 traced for memory, the first half of the
    inputs untraced, then the same half traced."""
    from tracer import Tracer

    names = [m["name"] for m in SPEC["per_layer"]]
    warm = Loop(wl, seed, size, inputs, meter)
    with Tracer(peaks=True).installed() as mem:  # untimed, so the kernel stays out
        warm.one(0, call=mem.run_op)
    k = (len(inputs) + 1) // 2
    plain = Loop(wl, seed, size, inputs, meter)
    traced = Loop(wl, seed, size, inputs, meter)
    # each pass is scaled by the kernel timings taken during it
    with meter.running():
        first = len(meter.samples)
        plain.run(k)
        middle = len(meter.samples)
        with Tracer(clock=meter.clock).installed() as tracer:
            traced.run(k, call=tracer.run_op)
    scale = meter.factor(middle)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = {n: v * scale if units[n] == "s/op" else v for n, v in tracer.layer_metrics(names).items()}
    metrics["trace.overhead_s"] = (sum(traced.times) * scale - sum(plain.times) * meter.factor(first, middle)) / k
    metrics.update({n: v for n, v in mem.layer_metrics(names).items() if n.endswith(".peak_mib")})
    same = traced.fingerprints == plain.fingerprints
    if not same:
        print(f"FAIL workload={wl.name} seed={seed} stage=trace error=answers changed under tracing")
    print(f"workload {wl.name}: {k} ops untraced, then traced; times scaled by {scale:.4f}")
    for m in SPEC["per_layer"]:
        print(_line(m["name"], metrics[m["name"]], m["unit"]))
    return metrics, same, [warm, plain, traced]


def run_workload(name: str, seed: int, seconds: float, trace: bool, size_name: str) -> dict:
    import workloads
    from speed import Meter

    wl = workloads.WORKLOADS[name]
    size = wl.sizes[size_name]
    count = wl.op_count(seconds, size)
    setup = None if trace else _setup_seconds(name, seed, size_name, count)
    inputs = [wl.make(seed, i, size) for i in range(count)]
    meter = Meter()
    # warm-up, untimed: lazy imports and first-call costs on the smallest input
    tiny = wl.sizes["tiny"]
    wl.op(wl.make(seed, 0, tiny), tiny)
    if trace:
        metrics, correct, loops = _per_layer(wl, seed, size, inputs, meter)
        specs = SPEC["per_layer"]
    else:
        loop = Loop(wl, seed, size, inputs, meter)
        with meter.running():
            loop.run(count)
        metrics = _end_to_end(loop, setup)
        correct, loops, specs = True, [loop], SPEC["end_to_end"]
    return {
        "correct": correct and not any(lp.bad_answers for lp in loops),
        "attempted": sum(len(lp.times) for lp in loops),
        "failed": sum(lp.ok.count(False) for lp in loops),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in specs},
    }


def run_all(seed: int, seconds: float, size: str) -> int:
    """Every workload in a fresh process, untraced and then traced."""
    results = {}
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace), "--size", size,
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            results[f"{w['name']}/trace{trace}"] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]],
                    help="one workload; every workload when omitted")
    ap.add_argument("--seed", type=int, default=0, help="input seed (default 0; 101 is held out for checking claims)")
    ap.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                    help="sets how many operations run: about this many seconds' worth at the reference speed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs for the smoke check")
    args = ap.parse_args(argv)
    _import_package()
    sys.path.insert(0, str(HERE))
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.size)
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
