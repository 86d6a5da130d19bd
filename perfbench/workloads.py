"""The benchmark's workloads: one per hot layer of ``repro``.

Each workload runs *passes*.  A pass is one user-level unit of work at
a fixed size — one CLI invocation (``repro.cli.main`` in process, its
``--json`` document parsed) or, for ``sc17_ler_bulk``, one
``BatchedLerExperiment(...).run_counts()`` batch per arm — and is
checked by :mod:`checks`.  Only CLI argv and the library entry point
named above are used, without engine, shard-size or decoder-alias
flags, so the workloads follow the program's defaults as they change.

``BENCHMARK.json`` gates ``sc17_ler_sharded``, ``sc17_ler_bulk`` and
``memory_block``.  ``phenom_uf``, the home of the decoder layer, runs
the same way for traced attribution (``--trace 1``); its pooled check
needs at least ten passes (~20 s) a run, which with a fourth gated
workload would not fit the benchmark's total time budget.

Sizes are chosen so a pass takes one to three seconds on a 2-core
Xeon host, and so every statistical check has a negligible false-alarm
rate (see :mod:`checks`).  ``tiny`` sizes are for smoke tests; their
outputs are too small for the statistical checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import checks

PHENOM_PERS = (0.01, 0.02, 0.04)  # the CLI default --per grid


def run_cli(argv: Sequence[str]) -> Tuple[float, Dict]:
    """Run ``repro`` in process; returns (seconds, parsed JSON document)."""
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = main(list(argv))
        elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"repro {' '.join(argv)} exited {code}")
    return elapsed, json.loads(out.getvalue().strip().splitlines()[-1])


def run_bulk(shots: int, windows: int, seed: int) -> Tuple[float, Dict]:
    """One ``run_counts`` batch per arm, as a CLI-shaped document."""
    from repro.experiments.ler import BatchedLerExperiment

    arms = []
    elapsed = 0.0
    for use_frame in (False, True):
        start = time.perf_counter()
        counts = BatchedLerExperiment(
            5e-3,
            num_shots=shots,
            use_pauli_frame=use_frame,
            windows=windows,
            seed=2 * seed + use_frame,
        ).run_counts()
        elapsed += time.perf_counter() - start
        arms.append(
            {
                "use_pauli_frame": use_frame,
                "logical_errors": int(counts.logical_errors.sum()),
                "windows": len(counts.logical_errors) * counts.windows,
                "clean_windows": int(counts.clean_windows.sum()),
                "corrections_commanded": int(
                    counts.corrections_commanded.sum()
                ),
            }
        )
    return elapsed, {"arms": arms}


@dataclass(frozen=True)
class Workload:
    """A named pass runner with its size, sample count and checks."""

    name: str
    #: size -> (seconds, document) for one pass with the given seed
    run: Callable[[Dict, int], Tuple[float, Dict]]
    #: size -> Monte-Carlo samples one pass completes, as the CLI counts
    samples: Callable[[Dict], int]
    check_pass: Callable[[Dict, Dict], List[str]]
    size: Dict
    tiny: Dict
    #: pooled check over all of a run's distinct passes
    check_run: Callable[[Sequence[Dict]], List[str]] = lambda docs: []
    #: passes a run makes at least, however short ``--seconds`` is
    min_passes: int = 3

    def pass_seeds(self, seed: int) -> Iterator[int]:
        """The pass seeds of a run: a pure function of the run seed."""
        rng = random.Random(f"{self.name}/{seed}")
        while True:
            yield rng.randrange(1, 2**31)


def _ler_argv(size: Dict, seed: int) -> List[str]:
    return [
        "ler", "--batch", str(size["shots"]), "--windows",
        str(size["windows"]), "--seed", str(seed), "--json",
    ]


def _memory_argv(size: Dict, seed: int) -> List[str]:
    return [
        "memory", "--distances", *map(str, size["distances"]),
        "--per", "5e-3", "--trials", str(size["trials"]),
        "--seed", str(seed), "--json",
    ]


def _phenom_argv(size: Dict, seed: int) -> List[str]:
    return [
        "phenomenological", "--distances", *map(str, size["distances"]),
        "--decoder", "unionfind", "--trials", str(size["trials"]),
        "--seed", str(seed), "--json",
    ]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="sc17_ler_sharded",
            run=lambda size, seed: run_cli(_ler_argv(size, seed)),
            samples=lambda size: 2 * size["shots"],
            check_pass=lambda doc, size: checks.check_sc17(
                doc, size["shots"], size["windows"]
            ),
            size={"shots": 400, "windows": 20},
            tiny={"shots": 2, "windows": 2},
        ),
        Workload(
            name="sc17_ler_bulk",
            run=lambda size, seed: run_bulk(
                size["shots"], size["windows"], seed
            ),
            samples=lambda size: 2 * size["shots"],
            check_pass=lambda doc, size: checks.check_sc17(
                doc, size["shots"], size["windows"]
            ),
            size={"shots": 2000, "windows": 20},
            tiny={"shots": 2, "windows": 2},
        ),
        Workload(
            name="memory_block",
            run=lambda size, seed: run_cli(_memory_argv(size, seed)),
            samples=lambda size: len(size["distances"]) * size["trials"],
            check_pass=lambda doc, size: checks.check_memory(
                doc, size["distances"], size["trials"]
            ),
            check_run=checks.check_memory_run,
            size={"distances": (3, 5), "trials": 40},
            tiny={"distances": (3, 5), "trials": 1},
        ),
        Workload(
            name="phenom_uf",
            run=lambda size, seed: run_cli(_phenom_argv(size, seed)),
            samples=lambda size: (
                len(size["distances"]) * len(PHENOM_PERS) * size["trials"]
            ),
            check_pass=lambda doc, size: checks.check_phenomenological(
                doc, size["distances"], PHENOM_PERS, size["trials"]
            ),
            check_run=checks.check_phenomenological_run,
            # 10 x 400 trials per distance: the pooled d=11 < d=7 check
            # then fails falsely with probability ~1e-4.
            min_passes=10,
            size={"distances": (7, 11), "trials": 400},
            tiny={"distances": (7, 11), "trials": 2},
        ),
    )
}


def clear_caches() -> List[str]:
    """Return process caches to a fresh process's state.

    Calls ``clear_reference_cache`` and ``clear_lut_cache`` wherever a
    loaded ``repro`` module defines them; returns the names called.
    """
    called = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr in ("clear_reference_cache", "clear_lut_cache"):
            function = vars(module).get(attr)
            if callable(function) and function.__module__ == name:
                function()
                called.append(f"{name}.{attr}")
    return called
