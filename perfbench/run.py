"""Benchmark of ``repro`` at the sizes and defaults a user runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` next to this
directory.  One run:

1. byte-compiles ``src/`` (the build step; untimed);
2. runs checked passes of the workload, each from a fresh cache state,
   for ``--seconds`` and at least the workload's ``min_passes``, and
   reports samples per second (``shots_per_s``) and the process's peak
   RSS;
3. between passes, spread over the run, times :data:`SETUP_PROBES`
   fresh interpreters that import ``repro`` and run one minimal pass
   (``setup_s``, their median); probe time is not pass time;
4. re-runs the first pass's seed and requires identical counts.

Times are counted in *reference seconds*.  The shared host this was
sized on switches between a fast state and one ~1.7x slower for
seconds to tens of minutes, so wall time alone drifts from run to run
by more than a regression bound.  A fixed loop of the benchmark's own
code (:func:`calibrate`) is timed before and after every pass and
every probe, and each wall time is scaled by
:data:`REFERENCE_CALIBRATION_S` over the mean of the two calibrations
around it: a pass that took 2 s while the loop ran at half its
reference speed counts as 1 s.  The loop does not call ``repro``, so a
change to the program moves the reported numbers as it moves wall
time.  Wall times are printed and kept in the record.

With ``--trace 1`` each pass runs twice on the same seed, untraced and
traced (:mod:`spans`), and the run reports per-layer self time, calls
and counters instead; the two documents must be identical.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything is
also written to ``.perfbench_out/`` at the repository root.
"""

import os

# Before numpy loads: one BLAS/OpenMP thread, as the sizes assume.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(SRC))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 8
PROBE_TIMEOUT_S = 120
#: about :func:`calibrate`'s wall time on a 2-core Xeon host in its fast state
REFERENCE_CALIBRATION_S = 0.035


def calibrate() -> float:
    """Wall time of a fixed mix of interpreter and small-array work.

    The mix resembles the program's hot loops (Python-level loops over
    dicts and ints, many small numpy calls) without calling it.
    """
    import numpy as np

    start = time.perf_counter()
    total = 0
    table = {}
    for i in range(200_000):
        total += i * i % 7
        table[i & 1023] = total
    words = np.arange(4096, dtype=np.uint64)
    for _ in range(2000):
        words ^= words >> np.uint64(3)
        words.sum()
    return time.perf_counter() - start


def environment() -> Dict:
    """Host and toolchain facts recorded with every result."""
    import numpy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def import_seconds(importtime_log: str, preloaded: set) -> float:
    """Total import time from a ``-X importtime`` log.

    Sums the cumulative time of top-level imports (nested ones are
    inside them), skipping modules the interpreter loaded before the
    probe script started.
    """
    total_us = 0
    for line in importtime_log.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2]
        if name.startswith("  "):  # nested import
            continue
        if name.strip() in preloaded:
            continue
        total_us += int(fields[1])
    return total_us / 1e6


class SetupProbes:
    """Fresh interpreters reaching a first pass, spread over a run.

    :meth:`catch_up` runs probes until ``count * fraction`` are done,
    so calling it between passes with the fraction of the run spent
    samples set-up across the host states the passes see.
    """

    def __init__(self, name: str, count: int, importtime: bool):
        self.command = [sys.executable]
        if importtime:
            self.command += ["-X", "importtime"]
        self.command += [str(HERE / "probe.py"), "--workload", name]
        self.name = name
        self.count = count
        self.importtime = importtime
        self.walls: List[float] = []
        self.calibrations: List[float] = []
        self.imports: List[float] = []
        self.builds: List[float] = []

    def catch_up(self, fraction: float) -> None:
        while len(self.walls) < min(self.count,
                                    math.ceil(self.count * fraction)):
            self.probe()

    def probe(self) -> None:
        before = calibrate()
        log_path = OUT / f"probe-{self.name}.err"
        with open(log_path, "w+") as log:
            start = time.perf_counter()
            with subprocess.Popen(
                self.command, stdout=subprocess.PIPE, stderr=log, text=True
            ) as probe:
                watchdog = threading.Timer(PROBE_TIMEOUT_S, probe.kill)
                watchdog.start()
                try:
                    line = probe.stdout.readline()
                    wall = time.perf_counter() - start
                    probe.stdout.read()
                    code = probe.wait()
                finally:
                    watchdog.cancel()
            log.seek(0)
            err = log.read()
        log_path.unlink()
        if code != 0 or not line:
            raise RuntimeError(f"set-up probe failed ({code}):\n{err[-2000:]}")
        report = json.loads(line)
        self.walls.append(wall)
        self.calibrations.append((before + calibrate()) / 2)
        if self.importtime:
            seconds = import_seconds(err, set(report["preloaded"]))
            self.imports.append(seconds)
            self.builds.append(report["elapsed_s"] - seconds)

    def summary(self) -> Dict:
        def scaled(walls):
            return statistics.median(
                wall * REFERENCE_CALIBRATION_S / calibration
                for wall, calibration in zip(walls, self.calibrations))

        result = {"setup_s": scaled(self.walls),
                  "probe_walls_s": self.walls,
                  "probe_calibrations_s": self.calibrations}
        if self.importtime:
            result["setup.import_s"] = scaled(self.imports)
            result["setup.build_s"] = scaled(self.builds)
        return result


def run_pass(workload, size: Dict, seed: int) -> Dict:
    """One checked pass from a fresh cache state."""
    workloads.clear_caches()
    try:
        seconds, doc = workload.run(size, seed)
    except Exception as error:  # a crashed pass is a failed pass
        return {"seed": seed, "seconds": None, "doc": None,
                "problems": [f"{type(error).__name__}: {error}"]}
    return {"seed": seed, "seconds": seconds, "doc": doc,
            "problems": workload.check_pass(doc, size)}


def timed_passes(workload, size, seed, seconds, min_passes,
                 probes: SetupProbes) -> List[Dict]:
    """Checked passes, each bracketed by calibrations, with set-up
    probes between them; probe time does not count towards ``seconds``.
    """
    seeds = workload.pass_seeds(seed)
    passes: List[Dict] = []
    spent = 0.0
    calibration = calibrate()
    while len(passes) < min_passes or spent < seconds:
        start = time.perf_counter()
        done = run_pass(workload, size, next(seeds))
        after = calibrate()
        done["calibration_s"] = (calibration + after) / 2
        calibration = after
        passes.append(done)
        spent += time.perf_counter() - start
        probes.catch_up(spent / seconds if seconds else 1.0)
    probes.catch_up(1.0)
    return passes


def pooled_rates(passes: List[Dict], samples_per_pass: int):
    """Samples per reference second and per wall second, pooled over
    the completed passes: a median of passes jumps between the host's
    speed states where a pooled rate moves with their mix.
    """
    timed = [p for p in passes if p["seconds"]]
    if not timed:
        raise RuntimeError("no pass completed")
    samples = samples_per_pass * len(timed)
    reference_s = sum(p["seconds"] * REFERENCE_CALIBRATION_S
                      / p["calibration_s"] for p in timed)
    return samples / reference_s, samples / sum(p["seconds"] for p in timed)


def traced_passes(workload, size, seed, seconds, min_pairs, tracer,
                  probes: SetupProbes):
    """Untraced/traced pass pairs on the same seeds."""
    seeds = workload.pass_seeds(seed)
    pairs = []
    spent = 0.0
    while len(pairs) < min_pairs or spent < seconds:
        start = time.perf_counter()
        pass_seed = next(seeds)
        plain = run_pass(workload, size, pass_seed)
        tracer.install()
        try:
            traced = run_pass(workload, size, pass_seed)
        finally:
            tracer.uninstall()
        tracer.recorder.end_pass()
        if plain["doc"] is not None and plain["doc"] != traced["doc"]:
            traced["problems"].append("traced counts differ from untraced")
        pairs.append((plain, traced))
        spent += time.perf_counter() - start
        probes.catch_up(spent / seconds if seconds else 1.0)
    probes.catch_up(1.0)
    return pairs


def layer_metrics(recorder, samples: int, traced_s: float) -> Dict:
    """Per-layer self time per kilo-sample, share and entry calls.

    Times cover every traced pass; calls and counters are those of
    the first traced pass, so they are exact for the run's seed.
    """
    totals = recorder.layer_totals()
    first = recorder.layer_totals(stop=recorder.passes[0][0])
    metrics = {}
    attributed = 0.0
    for layer in recorder.layers:
        self_s = totals[layer]["self_s"]
        attributed += self_s
        metrics[f"{layer}.self_s_per_kshot"] = (
            self_s / (samples / 1000), "s/kshot")
        metrics[f"{layer}.share"] = (self_s / traced_s, "fraction")
        metrics[f"{layer}.calls"] = (first[layer]["calls"], "count")
    for counter, value in recorder.passes[0][1].items():
        unit = "B" if counter.endswith("bytes") else "count"
        metrics[counter] = (value, unit)
    metrics["trace.unattributed_share"] = (
        1 - attributed / traced_s, "fraction")
    return metrics


def dominance_verdicts(name: str, metrics: Dict) -> List[str]:
    """Whether each dominant-layer prediction for ``name`` held."""
    predictions = json.loads((HERE / "predictions.json").read_text())
    verdicts = []
    for rule in predictions["dominant"]:
        if rule["workload"] != name:
            continue
        layers = rule["layers"]
        share = sum(metrics[f"{layer}.share"][0] for layer in layers)
        if "share_at_least" in rule:
            held = share >= rule["share_at_least"]
            claim = f"share >= {rule['share_at_least']}"
        elif "calls" in rule:
            calls = sum(metrics[f"{layer}.calls"][0] for layer in layers)
            held = calls == rule["calls"]
            claim = f"calls == {rule['calls']}"
        else:
            others = [metrics[f"{layer}.share"][0]
                      for layer in spans.LAYERS if layer not in layers]
            held = share > max(others)
            claim = "largest share"
        verdicts.append(f"prediction {'+'.join(layers)} {claim}: "
                        f"{'held' if held else 'NOT HELD'}")
    return verdicts


def write_spans(recorder, path: Path) -> None:
    import numpy as np

    np.savez_compressed(
        path,
        layers=np.array(recorder.layers),
        pass_ends=np.array([end for end, _ in recorder.passes]),
        **recorder.columns(),
    )


def main(argv=None, size_name: str = "size", probes: int = SETUP_PROBES,
         min_passes: Optional[int] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    size = getattr(workload, size_name)
    if min_passes is None:
        min_passes = workload.min_passes

    compileall.compile_dir(str(SRC), quiet=1)
    import repro.cli  # noqa: F401  (fails fast without the program)
    import repro.telemetry

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        raise RuntimeError(f"repro imported from {repro.__file__}, not {SRC}")
    if getattr(repro.telemetry, "ACTIVE", None) is not None:
        raise RuntimeError("telemetry must be off in benchmark runs")
    OUT.mkdir(exist_ok=True)
    env = environment()
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"size={size} env={json.dumps(env)}")

    prober = SetupProbes(workload.name, probes, importtime=bool(args.trace))
    workload.run(workload.tiny, 0)  # lazy imports of this process
    caches = workloads.clear_caches()
    print(f"caches cleared before each pass: {caches or 'none found'}")

    metrics: Dict[str, tuple] = {}
    run_problems: List[str] = []
    if args.trace:
        tracer = spans.Tracer(spans.SpanRecorder())
        tracer.resolve()
        pairs = traced_passes(workload, size, args.seed, args.seconds,
                              min_passes, tracer, prober)
        setup = prober.summary()
        checked = [p for pair in pairs for p in pair]
        distinct = [traced for _, traced in pairs]
        traced_s = sum(t["seconds"] or 0.0 for t in distinct)
        plain_s = sum(p["seconds"] or 0.0 for p, _ in pairs)
        metrics.update(layer_metrics(
            tracer.recorder, workload.samples(size) * len(pairs), traced_s))
        metrics["trace.overhead"] = (traced_s / plain_s, "ratio")
        metrics["setup.import_s"] = (setup["setup.import_s"], "s")
        metrics["setup.build_s"] = (setup["setup.build_s"], "s")
        absent = tracer.absent_layers()
        print(f"absent targets: {tracer.absent or 'none'}; "
              f"absent layers: {absent or 'none'}")
        print("\n".join(dominance_verdicts(workload.name, metrics)))
        write_spans(tracer.recorder,
                    OUT / f"spans-{workload.name}-seed{args.seed}.npz")
    else:
        checked = timed_passes(workload, size, args.seed, args.seconds,
                               min_passes, prober)
        setup = prober.summary()
        distinct = checked
        first = checked[0]
        if first["doc"] is not None:
            again = run_pass(workload, size, first["seed"])
            if again["doc"] != first["doc"]:
                run_problems.append(
                    f"seed {first['seed']}: repeated pass gave other counts")
        rate, wall_rate = pooled_rates(checked, workload.samples(size))
        metrics["shots_per_s"] = (rate, "shots/s")
        print(f"wall-time rate (not scaled) = {wall_rate} shots/s")
        metrics["setup_s"] = (setup["setup_s"], "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    docs = [p["doc"] for p in distinct if p["doc"] is not None]
    run_problems += workload.check_run(docs)
    failed = sum(1 for p in checked if p["problems"])
    for index, p in enumerate(checked):
        seconds = f"{p['seconds']:.3f} s" if p["seconds"] else "crashed"
        print(f"pass {index}: seed={p['seed']} {seconds} "
              f"{'; '.join(p['problems']) or 'ok'}")
    for problem in run_problems:
        print(f"run check failed: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    result = {
        "correct": failed == 0 and not run_problems,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(result, env=env,
                  reference_calibration_s=REFERENCE_CALIBRATION_S, workload=workload.name, seed=args.seed,
                  trace=args.trace, size=size, setup=setup, caches=caches,
                  run_problems=run_problems,
                  passes=[{k: v for k, v in p.items() if k != "doc"}
                          for p in checked])
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
