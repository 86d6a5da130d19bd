"""Output checks of the benchmark's workloads.

Every check takes a workload's JSON document (the ``--json`` output of
the CLI, or the same shape built from the library for the bulk SC17
workload) and returns a list of problems; an empty list passes.  The
checks are statistical, never pinned digests, so a change that
legitimately alters the random stream still passes.  Their false-alarm
rates are set for the sizes in :mod:`workloads`: each per-pass
threshold sits at least ~4.5 standard deviations from the expected
value; the ``*_run`` checks pool the distinct passes of a whole run.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

#: Plausible SC17 LER per window at p = 5e-3 (about 0.045 measured).
SC17_LER_RANGE = (0.02, 0.09)
#: Largest |z| of the frame vs no-frame LER difference still counted
#: as agreement within sampling noise (the paper's claim).
ARM_Z_MAX = 5.0
#: Per pass, the phenomenological d = 11 LER may exceed the d = 7 LER
#: at p = 0.02 only by less than this many standard deviations; the
#: strict "below" is checked on the pooled passes of a run.
PHENOM_PASS_Z_MAX = 4.0
PHENOM_PER = 0.02
PHENOM_DISTANCES = (7, 11)


def two_proportion_z(
    errors_a: int, trials_a: int, errors_b: int, trials_b: int
) -> float:
    """z score of ``rate_a - rate_b`` under a pooled binomial variance."""
    pooled = (errors_a + errors_b) / (trials_a + trials_b)
    variance = pooled * (1 - pooled) * (1 / trials_a + 1 / trials_b)
    if variance == 0:
        return 0.0
    return (errors_a / trials_a - errors_b / trials_b) / math.sqrt(variance)


def check_sc17(doc: Dict, shots: int, windows: int) -> List[str]:
    """Both arms complete, plausible, and agreeing within noise."""
    problems = []
    arms = {arm.get("use_pauli_frame"): arm for arm in doc.get("arms", [])}
    if set(arms) != {False, True}:
        return [f"expected a frame and a no-frame arm, got {sorted(arms)}"]
    planned = shots * windows
    for use_frame, arm in sorted(arms.items()):
        label = "frame" if use_frame else "no-frame"
        if arm.get("windows") != planned:
            problems.append(
                f"{label} arm committed {arm.get('windows')} windows, "
                f"planned {planned} ({shots} shots x {windows})"
            )
        if arm.get("committed_shards") != arm.get("num_shards"):
            problems.append(
                f"{label} arm committed {arm.get('committed_shards')} of "
                f"{arm.get('num_shards')} shards"
            )
        errors = arm.get("logical_errors", -1)
        rate = errors / planned if planned else float("nan")
        low, high = SC17_LER_RANGE
        if not low <= rate <= high:
            problems.append(
                f"{label} arm LER {rate:.4f} outside [{low}, {high}]"
            )
    if problems:
        return problems
    z = two_proportion_z(
        arms[False]["logical_errors"], planned,
        arms[True]["logical_errors"], planned,
    )
    if abs(z) > ARM_Z_MAX:
        problems.append(
            f"frame and no-frame LER differ by z = {z:.2f} "
            f"(limit {ARM_Z_MAX})"
        )
    return problems


def check_memory(
    doc: Dict, distances: Sequence[int], trials: int
) -> List[str]:
    """Every distance ran all blocks, each with an LER below 0.5."""
    rows = {row.get("distance"): row for row in doc.get("rows", [])}
    if sorted(rows) != sorted(distances):
        return [f"expected distances {list(distances)}, got {sorted(rows)}"]
    problems = []
    for distance, row in sorted(rows.items()):
        if row.get("windows") != trials:
            problems.append(
                f"d={distance} ran {row.get('windows')} blocks, "
                f"planned {trials}"
            )
        errors = row.get("logical_errors", -1)
        if not 0 <= errors < 0.5 * trials:
            problems.append(
                f"d={distance} LER {errors}/{trials} not below 0.5"
            )
    return problems


def check_memory_run(docs: Sequence[Dict]) -> List[str]:
    """Pooled over a run's passes, the memory LER is non-zero."""
    errors = sum(
        row.get("logical_errors", 0)
        for doc in docs
        for row in doc.get("rows", [])
    )
    return [] if errors > 0 else ["memory LER is zero over the whole run"]


def _phenom_rows(doc: Dict) -> Dict:
    return {
        (row.get("distance"), row.get("data_error_rate")): row
        for row in doc.get("rows", [])
    }


def check_phenomenological(
    doc: Dict, distances: Sequence[int], pers: Sequence[float], trials: int
) -> List[str]:
    """All points ran; LER grows with p; d = 11 not worse than d = 7."""
    rows = _phenom_rows(doc)
    expected = {(d, p) for d in distances for p in pers}
    if set(rows) != expected:
        return [
            f"expected (d, p) points {sorted(expected)}, "
            f"got {sorted(rows)}"
        ]
    problems = []
    for (distance, per), row in sorted(rows.items()):
        if row.get("trials") != trials:
            problems.append(
                f"d={distance} p={per} ran {row.get('trials')} trials, "
                f"planned {trials}"
            )
        if not 0 <= row.get("logical_errors", -1) <= trials:
            problems.append(f"d={distance} p={per} error count out of range")
    if problems:
        return problems
    for distance in distances:
        low = rows[(distance, min(pers))]["logical_errors"]
        high = rows[(distance, max(pers))]["logical_errors"]
        if not low < high:
            problems.append(
                f"d={distance}: LER does not grow from p={min(pers)} "
                f"({low}) to p={max(pers)} ({high})"
            )
    small, large = PHENOM_DISTANCES
    z = two_proportion_z(
        rows[(large, PHENOM_PER)]["logical_errors"], trials,
        rows[(small, PHENOM_PER)]["logical_errors"], trials,
    )
    if z > PHENOM_PASS_Z_MAX:
        problems.append(
            f"d={large} LER exceeds d={small} LER at p={PHENOM_PER} "
            f"by z = {z:.2f}"
        )
    return problems


def check_phenomenological_run(docs: Sequence[Dict]) -> List[str]:
    """Pooled over a run's passes, d = 11 has the lower LER at p = 0.02."""
    small, large = PHENOM_DISTANCES
    errors = {small: 0, large: 0}
    trials = {small: 0, large: 0}
    for doc in docs:
        rows = _phenom_rows(doc)
        for distance in (small, large):
            row = rows.get((distance, PHENOM_PER))
            if row is None:
                return [f"no d={distance} p={PHENOM_PER} point"]
            errors[distance] += row["logical_errors"]
            trials[distance] += row["trials"]
    if not trials[small] or not trials[large]:
        return ["no phenomenological trials to pool"]
    rate_small = errors[small] / trials[small]
    rate_large = errors[large] / trials[large]
    if not rate_large < rate_small:
        return [
            f"pooled LER at p={PHENOM_PER}: d={large} {rate_large:.4f} is "
            f"not below d={small} {rate_small:.4f}"
        ]
    return []
