"""ecgfusion benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload train_published --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A table with sample counts and machine information goes to standard
error, and the full result (plus the spans of a traced run) to
``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5


class StepClock:
    """Times training steps, from the start of a step to the end of its
    Adam update, by wrapping ``training.train_epoch`` and
    ``training.adam_step``; the CLI's ``train`` command gives no other
    handle on single steps."""

    def __init__(self, training):
        self.steps: list[float] = []
        self._last = 0.0
        epoch, adam = training.train_epoch, training.adam_step

        @functools.wraps(epoch)
        def train_epoch(*args, **kwargs):
            self._last = time.perf_counter()
            return epoch(*args, **kwargs)

        @functools.wraps(adam)
        def adam_step(*args, **kwargs):
            result = adam(*args, **kwargs)
            now = time.perf_counter()
            self.steps.append(now - self._last)
            self._last = now
            return result

        training.train_epoch, training.adam_step = train_epoch, adam_step

    def drain(self) -> list[float]:
        steps, self.steps = self.steps, []
        return steps


class Samples:
    """Timed operations of a run: the time and records per second of
    each operation by kind, and the time of each pass.  Operations timed
    inside a set-up (``state["timed"]``) count as samples of their kind."""

    def __init__(self, clock: StepClock, tracer=None):
        self.clock = clock
        self.tracer = tracer
        self.times = defaultdict(list)
        self.rates = defaultdict(list)
        self.details = defaultdict(list)
        self.passes: list[float] = []
        self.attempted = 0
        self._pass_time = 0.0

    @contextlib.contextmanager
    def phase(self, kind: str, records: int = 1):
        self.attempted += 1
        traced = self.tracer.span(f"bench.{kind}") if self.tracer else contextlib.nullcontext()
        self.clock.drain()
        t0 = time.perf_counter()
        with traced:
            yield
        dt = time.perf_counter() - t0
        self._pass_time += dt
        self.times[kind].append(dt)
        self.rates[kind].append(records / dt)
        if kind == "train":
            self.times["train_step"].extend(self.clock.drain())

    def end_pass(self) -> None:
        self.passes.append(self._pass_time)
        self._pass_time = 0.0

    def add_setup(self, figures: dict) -> None:
        self.attempted += 1 + len(figures["rates"])
        self.times["setup"].append(figures["setup_s"])
        for kind, rate in figures["rates"].items():
            self.rates[kind].append(rate)


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(samples: Samples, test_loss: float) -> dict:
    """Metric name -> (value, sample count).  Rates are medians over
    operations, so a burst of load on the machine moves them less."""
    t, r = samples.times, samples.rates
    return {
        "setup_s": (statistics.median(t["setup"]), len(t["setup"])),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "train_records_per_s": (statistics.median(r["train"]), len(r["train"])),
        "train_step_ms_p50": (statistics.median(t["train_step"]) * 1e3, len(t["train_step"])),
        "predict_ms_p50": (statistics.median(t["predict"]) * 1e3, len(t["predict"])),
        "predict_ms_p90": (nearest_rank(t["predict"], 0.9) * 1e3, len(t["predict"])),
        "eval_records_per_s": (statistics.median(r["eval"]), len(r["eval"])),
        "preprocess_records_per_s": (statistics.median(r["preprocess"]), len(r["preprocess"])),
        "pipeline_s": (statistics.median(samples.passes), len(samples.passes)),
        "test_loss": (test_loss, len(samples.passes)),
    }


def machine_info(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "seed": seed,
        "platform": platform.platform(),
    }


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def use_checkout_sources() -> None:
    """Import the program from this checkout, with BLAS threads fixed
    before numpy loads OpenBLAS."""
    nproc = len(os.sched_getaffinity(0))
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = str(nproc)
    sys.path.insert(0, str(ROOT / "src"))


def cold_setup(name: str, seed: int, workdir: Path):
    """Set up workload ``name`` as a fresh process does: import numpy and
    the program (which starts the BLAS thread pool), draw the inputs,
    build the models and fill lazy caches.  Returns the workload, its
    state and the set-up's figures: its time and the rate of each
    operation timed inside it."""
    workdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    state = workload.setup(seed, workdir)
    setup_s = time.perf_counter() - t0
    rates = {kind: records / dt for kind, (records, dt) in state.get("timed", {}).items()}
    return workload, state, {"setup_s": setup_s, "rates": rates}


def setup_in_child(name: str, seed: int, workdir: Path) -> dict:
    """The figures of one cold set-up in a fresh process (setup_probe.py)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed), str(workdir)],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(workload, state, seed: int, seconds: float, trace: bool, setups: list) -> dict:
    import numpy as np

    from ecgfusion import autodiff, cli, data, model, sigproc, training
    from spans import LAYERS, Tracer, layer_metrics
    from workloads import check

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    clock = StepClock(training)
    tracer = Tracer({"autodiff": autodiff, "model": model, "training": training,
                     "sigproc": sigproc, "data": data, "cli": cli}) if trace else None
    warm, plain, traced = Samples(clock), Samples(clock), Samples(clock, tracer)
    for figures in setups:
        plain.add_setup(figures)
    first_losses = None
    pass_counts = []
    failures = []

    def one_pass(samples, first):
        nonlocal first_losses
        losses = workload.run_pass(state, samples, first)
        samples.end_pass()
        for name, value in losses.items():
            check(bool(np.isfinite(value)), f"{name} is not finite: {value}")
        first_losses = first_losses or losses
        check(losses == first_losses, f"losses changed between passes: {first_losses} then {losses}")

    start = time.perf_counter()
    try:
        if workload.warmup:
            one_pass(warm, first=True)
            start = time.perf_counter()
        # in a traced run, traced and untraced passes alternate so the
        # tracing overhead is measured in the same process
        index = 0
        while True:
            use_trace = trace and index % 2 == 0
            if use_trace:
                tracer.run = index
                tracer.counts.clear()
            one_pass(traced if use_trace else plain, first=index == 0 and not workload.warmup)
            if use_trace:
                pass_counts.append(Counter(tracer.counts))
            index += 1
            # stop where the run ends closest to its time
            typical = statistics.median(plain.passes + traced.passes)
            if time.perf_counter() - start + typical / 2 > seconds and (
                not trace or (plain.passes and traced.passes)
            ):
                break
    except Exception as exc:  # a failed operation ends the run and is reported
        failures.append(f"{type(exc).__name__}: {exc}")
    failed_in_run = len(failures)
    result = {
        "workload": workload.name,
        "seconds": seconds,
        "measured_s": time.perf_counter() - start,
        "trace": int(trace),
        "machine": machine_info(seed),
        "losses": first_losses,
        "failures": failures,
        "metrics": {},
    }
    if trace and traced.passes and plain.passes:
        n = len(traced.passes)
        if any(c != pass_counts[0] for c in pass_counts):
            failures.append("counts differ between traced passes")
        metrics = layer_metrics(tracer.spans, pass_counts[0], n)
        layer_self = sum(metrics[f"{layer}.self_ms"] for layer in LAYERS)
        metrics["trace.coverage"] = layer_self / (statistics.mean(traced.passes) * 1e3)
        metrics["trace.overhead_pct"] = (statistics.median(traced.passes) / statistics.median(plain.passes) - 1) * 100
        if not 0.9 <= metrics["trace.coverage"] <= 1.1:
            failures.append(f"layer self times cover {metrics['trace.coverage']:.3f} of the traced pass time")
        result["metrics"] = {k: {"value": v, "unit": units[k], "samples": n} for k, v in metrics.items()}
        result["spans"] = tracer.spans
    elif not trace and first_losses:
        e2e = end_to_end(plain, first_losses["test_loss"])
        result["metrics"] = {k: {"value": v, "unit": units[k], "samples": c} for k, (v, c) in e2e.items()}
        result["setup_s_each"] = plain.times["setup"]
        result["pass_s"] = plain.passes
        result["records_per_s"] = plain.rates
        result["ms_per_record"] = {k: statistics.median(v) * 1e3 for k, v in plain.details.items()}
    listed = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if result["metrics"] and sorted(result["metrics"]) != sorted(listed):
        failures.append("the metrics differ from those BENCHMARK.json lists")
    # a check after the run that fails counts as a failed operation
    result["attempted"] = warm.attempted + plain.attempted + traced.attempted + len(failures) - failed_in_run
    result["failed"] = len(failures)
    result["correct"] = not failures
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "ecgfusion" / "__init__.py").is_file():
        print(f"perfbench: no ecgfusion sources under {ROOT / 'src'}; run it from a checkout", file=sys.stderr)
        return 2
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; options: {', '.join(names)}", file=sys.stderr)
        return 2
    use_checkout_sources()

    (BENCH / "work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / "work"))
    try:
        # the first set-up is this process's own, before anything else is
        # imported; the others run in fresh processes, so every one is cold
        workload, state, figures = cold_setup(args.workload, args.seed, workdir / "main")
        import ecgfusion

        if Path(ecgfusion.__file__).resolve().parent != ROOT / "src" / "ecgfusion":
            print(f"perfbench: imported ecgfusion from {ecgfusion.__file__}, not from this checkout", file=sys.stderr)
            return 2
        setups = [figures]
        if not args.trace:
            setups += [setup_in_child(args.workload, args.seed, workdir / f"setup{i}")
                       for i in range(1, SETUP_REPEATS)]
        result = run(workload, state, args.seed, args.seconds, bool(args.trace), setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans", None)
    if spans is not None:
        from spans import write_spans

        write_spans(spans, out_dir / f"{stem}-spans.csv.gz")
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print_table(result)
    if not result["metrics"]:
        return 1
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in result["metrics"].items()},
    }))
    return 0


def print_table(result: dict) -> None:
    err = sys.stderr
    m = result["machine"]
    print(f"{result['workload']} seed {m['seed']} trace {result['trace']}: "
          f"nproc {m['nproc']}, python {m['python']}, numpy {m['numpy']}, {m['blas']}, "
          f"{m['blas_threads']} BLAS threads; measured {result['measured_s']:.1f} s", file=err)
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']:10s} n={metric['samples']}", file=err)
    status = "correct" if result["correct"] else "INCORRECT"
    print(f"  {status}: {result['attempted']} operations attempted, {result['failed']} failed", file=err)
    for failure in result["failures"]:
        print(f"  failure: {failure}", file=err)


if __name__ == "__main__":
    sys.exit(main())
