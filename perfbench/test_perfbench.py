"""Tests of the benchmark itself: checks, tracer and output format.

    python -m pytest perfbench -q
"""

import copy
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def sc17_doc(no_frame_errors=370, frame_errors=360, windows=8000):
    return {
        "arms": [
            {"use_pauli_frame": use_frame, "logical_errors": errors,
             "windows": windows, "committed_shards": 4, "num_shards": 4}
            for use_frame, errors in ((False, no_frame_errors),
                                      (True, frame_errors))
        ]
    }


def memory_doc(errors=(3, 10), trials=100):
    return {"rows": [
        {"distance": d, "logical_errors": e, "windows": trials}
        for d, e in zip((3, 5), errors)
    ]}


def phenom_doc(d7=(0, 40, 300), d11=(0, 25, 330), trials=1000):
    return {"rows": [
        {"distance": d, "data_error_rate": p, "logical_errors": e,
         "trials": trials}
        for d, counts in ((7, d7), (11, d11))
        for p, e in zip(workloads.PHENOM_PERS, counts)
    ]}


def _uncommitted(doc):
    doc["arms"][0]["committed_shards"] = 3
    return doc


def _short(doc):
    doc["arms"][1]["windows"] = 7980
    return doc


def _one_arm(doc):
    del doc["arms"][1]
    return doc


SC17_CORRUPTIONS = {
    "missing arm": _one_arm,
    "uncommitted shard": _uncommitted,
    "missing shots": _short,
    "zero LER": lambda doc: sc17_doc(0, 0),
    "implausible LER": lambda doc: sc17_doc(4000, 3990),
    "arms disagree": lambda doc: sc17_doc(370, 600),
}


@pytest.mark.parametrize("corruption", sorted(SC17_CORRUPTIONS))
def test_sc17_check_rejects_corrupted_result(corruption):
    assert checks.check_sc17(sc17_doc(), 400, 20) == []
    doc = SC17_CORRUPTIONS[corruption](copy.deepcopy(sc17_doc()))
    assert checks.check_sc17(doc, 400, 20)


@pytest.mark.parametrize("doc", [
    memory_doc(errors=(3, 50)),
    memory_doc(trials=99),
    {"rows": memory_doc()["rows"][:1]},
], ids=["LER of one half", "missing blocks", "missing d"])
def test_memory_check_rejects_corrupted_result(doc):
    assert checks.check_memory(memory_doc(), (3, 5), 100) == []
    assert checks.check_memory(doc, (3, 5), 100)


def test_memory_run_check_rejects_zero_ler():
    mixed = [memory_doc(errors=(0, 0)), memory_doc()]
    assert checks.check_memory_run(mixed) == []
    assert checks.check_memory_run([memory_doc(errors=(0, 0))] * 3)


@pytest.mark.parametrize("doc", [
    phenom_doc(d7=(0, 25, 300), d11=(0, 90, 330)),
    phenom_doc(d7=(40, 40, 40)),
    {"rows": phenom_doc()["rows"][1:]},
    phenom_doc(trials=999),
], ids=["d=11 worse", "flat in p", "missing point", "missing trials"])
def test_phenomenological_check_rejects_corrupted_result(doc):
    pers = workloads.PHENOM_PERS
    good = phenom_doc()
    assert checks.check_phenomenological(good, (7, 11), pers, 1000) == []
    assert checks.check_phenomenological(doc, (7, 11), pers, 1000)


def test_phenomenological_run_check_pools_passes():
    good = [phenom_doc(d7=(0, 40, 300), d11=(0, 39, 330))] * 4
    assert checks.check_phenomenological_run(good) == []
    swapped = [phenom_doc(d7=(0, 39, 300), d11=(0, 40, 330))] * 4
    assert checks.check_phenomenological_run(swapped)


def test_pass_seeds_depend_only_on_run_seed():
    workload = workloads.WORKLOADS["phenom_uf"]
    first = workload.pass_seeds(5)
    again = workload.pass_seeds(5)
    other = workload.pass_seeds(6)
    seeds = [next(first) for _ in range(4)]
    assert seeds == [next(again) for _ in range(4)]
    assert seeds != [next(other) for _ in range(4)]
    assert len(set(seeds)) == 4


def test_self_time_subtracts_children_and_counts_entries():
    recorder = spans.SpanRecorder(("outer", "inner"))
    outer = recorder.open(0)
    for _ in range(2):
        inner = recorder.open(1)
        nested = recorder.open(1)
        recorder.close(nested)
        recorder.close(inner)
    recorder.close(outer)
    recorder.end_pass()
    totals = recorder.layer_totals()
    columns = recorder.columns()
    wall = columns["end"].max() - columns["start"].min()
    assert totals["outer"]["self_s"] + totals["inner"]["self_s"] == (
        pytest.approx(wall))
    assert totals["outer"]["calls"] == 1
    assert totals["inner"]["calls"] == 2  # the nested span is no entry
    assert set(columns["parent"]) == {0, 1, 2, 4}


def test_missing_targets_are_reported_absent():
    tracer = spans.Tracer(spans.SpanRecorder(), targets=(
        spans.Target("decoders", "repro.no_such_module", None, ("f",)),
        spans.Target("qpdo", "repro.qpdo.core", "Core+", ("no_such",)),
        spans.Target("codes.esm", "repro.codes.rotated.esm", None,
                     ("no_such",)),
    ))
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == [
        "repro.no_such_module",
        "repro.qpdo.core:Core+.no_such",
        "repro.codes.rotated.esm:no_such",
    ]
    assert tracer.absent_layers() == list(spans.LAYERS)


def test_tracer_restores_every_patched_call():
    from repro.codes.rotated import esm
    from repro.experiments import memory
    from repro.qpdo.error_layer import DepolarizingErrorLayer

    original = esm.parallel_esm
    inherited = spans.Target(
        "qpdo", "repro.qpdo.error_layer", "DepolarizingErrorLayer",
        ("execute",))
    tracer = spans.Tracer(spans.SpanRecorder(), spans.TARGETS + (inherited,))
    tracer.install()
    assert memory.parallel_esm is not original
    assert memory.parallel_esm.__wrapped__ is original
    assert "execute" in vars(DepolarizingErrorLayer)
    tracer.uninstall()
    assert memory.parallel_esm is original
    assert esm.parallel_esm is original
    assert "execute" not in vars(DepolarizingErrorLayer)


def test_pooled_rate_counts_time_in_reference_seconds():
    ref = run.REFERENCE_CALIBRATION_S
    passes = [
        {"seconds": 2.0, "calibration_s": 2 * ref},  # host at half speed
        {"seconds": 1.0, "calibration_s": ref},
        {"seconds": None, "calibration_s": ref},  # crashed: not counted
    ]
    rate, wall_rate = run.pooled_rates(passes, samples_per_pass=100)
    assert rate == pytest.approx(100.0)
    assert wall_rate == pytest.approx(200 / 3)


def test_setup_probes_spread_over_the_run_and_scale():
    prober = run.SetupProbes("memory_block", 8, importtime=False)

    def fake_probe():
        prober.walls.append(2.0)
        prober.calibrations.append(2 * run.REFERENCE_CALIBRATION_S)

    prober.probe = fake_probe
    done = []
    for fraction in (0.01, 0.3, 0.5, 0.99, 1.0, 2.0):
        prober.catch_up(fraction)
        done.append(len(prober.walls))
    assert done == [1, 3, 4, 8, 8, 8]
    assert prober.summary()["setup_s"] == pytest.approx(1.0)


def _run_tiny(name, trace):
    out = io.StringIO()
    argv = ["--workload", name, "--seed", "3", "--seconds", "0",
            "--trace", str(trace)]
    with redirect_stdout(out):
        assert run.main(argv, size_name="tiny", probes=1, min_passes=1) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric_with_its_unit(name, trace):
    result = _run_tiny(name, trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {
        metric: value["unit"] for metric, value in result["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in declared}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_benchmark_declares_workloads_the_runner_has():
    names = [workload["name"] for workload in BENCHMARK["workloads"]]
    assert set(names) <= set(workloads.WORKLOADS)
    predictions = json.loads((HERE / "predictions.json").read_text())
    for layer in predictions["layers"]:
        for metric, workload in layer["moves"]:
            assert workload in workloads.WORKLOADS
            assert metric in {m["name"] for m in BENCHMARK["end_to_end"]}
