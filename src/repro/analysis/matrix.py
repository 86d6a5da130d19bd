"""Static capability-matrix verification (``repro analyze matrix``).

The decoder registry made decoder selection declarative: capability
flags plus builder callables.  That turned "which decoder
works where" into *data* -- which means it can be checked statically,
the same move the circuit pre-flight made for frame rules.  This
module enumerates every registered decoder x experiment combination
and verifies the contracts between them **without
sampling a single shot**:

* **registry consistency** -- a capability flag and its builder must
  agree (``windowed`` <-> ``window_builder``, ``spacetime`` <-> both
  graph builders), graph parameters are identifiers, names are
  well-formed CLI tokens;
* **engines** -- the live core of each engine (``exact`` / ``fast``,
  :data:`~repro.sim.packedsim.ENGINES`) must advertise
  ``Core.supports()`` of the batch and packed capabilities.  The
  engines drive the windowed protocol, so a decoder runs on them
  exactly when it runs the ``ler`` experiment;
* **experiment matrix** -- windowed experiments (``ler``, ``sweep``,
  serve jobs) require ``windowed``; graph experiments
  (``phenomenological``, ``distance``, ``memory``) require
  ``spacetime``; serve-side params validation
  (:func:`repro.serve.workers.check_job_params`) must accept exactly
  the decoders the registry says it should (and keep refusing
  parameterized specs);
* **documentation grammar** -- every ``--decoder NAME[:KEY=VALUE,...]``
  example in README.md / EXPERIMENTS.md parses, names a registered
  decoder, uses only declared graph parameters, and round-trips
  through :func:`~repro.decoders.registry.format_decoder_arg`.

The result is a :class:`~repro.experiments.results.MatrixReport`
(``repro analyze matrix --json``), gated in CI next to the
determinism linter.  A broken registry entry -- flag without builder,
serve contract drift -- turns into a named problem
string and a non-zero exit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..decoders.registry import (
    CAP_SPACETIME,
    CAP_WINDOWED,
    RegisteredDecoder,
    format_decoder_arg,
    list_decoders,
    parse_decoder_arg,
)
from ..qpdo.core import CAP_BATCH, CAP_PACKED
from ..sim.packedsim import ENGINES

#: experiment context -> the decoder capability it requires.
EXPERIMENT_REQUIREMENTS: Dict[str, str] = {
    "ler": CAP_WINDOWED,
    "sweep": CAP_WINDOWED,
    "serve": CAP_WINDOWED,
    "phenomenological": CAP_SPACETIME,
    "distance": CAP_SPACETIME,
    "memory": CAP_SPACETIME,
}

#: ``--decoder <token>`` occurrences in the documentation.
_DOC_DECODER_PATTERN = re.compile(r"--decoder[= ]([A-Za-z0-9_:,.=-]+)")

_NAME_PATTERN = re.compile(r"^[a-z][a-z0-9-]*$")


@dataclass
class MatrixCell:
    """One decoder x context compatibility verdict."""

    decoder: str
    context: str
    supported: bool
    reason: str

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "decoder": self.decoder,
            "context": self.context,
            "supported": self.supported,
            "reason": self.reason,
        }


def check_registry(
    decoders: Sequence[RegisteredDecoder],
) -> List[str]:
    """Flag/builder consistency + naming problems."""
    problems: List[str] = []
    for spec in decoders:
        if not _NAME_PATTERN.match(spec.name):
            problems.append(
                f"decoder name {spec.name!r} is not a well-formed "
                f"CLI token (expected [a-z][a-z0-9-]*)"
            )
        if not spec.summary.strip():
            problems.append(f"decoder {spec.name!r} has no summary")
        windowed = CAP_WINDOWED in spec.capabilities
        if windowed != (spec.window_builder is not None):
            problems.append(
                f"decoder {spec.name!r}: capability "
                f"{CAP_WINDOWED!r} is "
                f"{'claimed' if windowed else 'absent'} but "
                f"window_builder is "
                f"{'missing' if windowed else 'present'}"
            )
        spacetime = CAP_SPACETIME in spec.capabilities
        has_graph = (
            spec.space_builder is not None
            and spec.spacetime_builder is not None
        )
        if spacetime != has_graph:
            problems.append(
                f"decoder {spec.name!r}: capability "
                f"{CAP_SPACETIME!r} is "
                f"{'claimed' if spacetime else 'absent'} but the "
                f"space/spacetime builders are "
                f"{'incomplete' if spacetime else 'present'}"
            )
        for param in spec.graph_params:
            if not param.isidentifier():
                problems.append(
                    f"decoder {spec.name!r}: graph parameter "
                    f"{param!r} is not an identifier"
                )
        if spec.graph_params and not spacetime:
            problems.append(
                f"decoder {spec.name!r} declares graph parameters "
                f"but not the {CAP_SPACETIME!r} capability"
            )
    return problems


def check_engines() -> List[str]:
    """Every engine's live core (1 shot, fixed seed) must advertise the
    batch and packed capabilities."""
    from ..qpdo.packed_core import PackedStabilizerCore

    problems: List[str] = []
    for engine in ENGINES:
        core = PackedStabilizerCore(num_shots=1, seed=0, rng_mode=engine)
        for capability in (CAP_BATCH, CAP_PACKED):
            if not core.supports(capability):
                problems.append(
                    f"engine {engine!r}: {type(core).__name__}"
                    f".supports({capability!r}) is False"
                )
    return problems


def check_experiment_matrix(
    decoders: Sequence[RegisteredDecoder],
) -> Tuple[List[MatrixCell], List[str]]:
    """Experiment-context support + serve params cross-check."""
    from ..serve.workers import JobParamsError, check_job_params

    cells: List[MatrixCell] = []
    problems: List[str] = []
    for spec in decoders:
        for context, required in sorted(
            EXPERIMENT_REQUIREMENTS.items()
        ):
            supported = required in spec.capabilities
            reason = (
                f"capability {required!r} "
                f"{'present' if supported else 'missing'}"
            )
            cells.append(
                MatrixCell(
                    decoder=spec.name,
                    context=f"experiment:{context}",
                    supported=supported,
                    reason=reason,
                )
            )
            if context != "serve":
                continue
            try:
                check_job_params(
                    "ler",
                    {
                        "physical_error_rate": 1e-3,
                        "decoder": spec.name,
                    },
                )
                accepted = True
            except JobParamsError:
                accepted = False
            if accepted != supported:
                problems.append(
                    f"serve params validation "
                    f"{'accepts' if accepted else 'rejects'} "
                    f"decoder {spec.name!r} but the capability "
                    f"matrix says it is "
                    f"{'supported' if supported else 'unsupported'}"
                )
    # The service must keep refusing parameterized decoder specs at
    # the door (the windowed builders take no parameters).
    try:
        check_job_params(
            "ler",
            {
                "physical_error_rate": 1e-3,
                "decoder": "lut:time_weight=1.0",
            },
        )
        problems.append(
            "serve params validation accepts a parameterized "
            "decoder spec; the windowed protocol takes none"
        )
    except JobParamsError:
        pass
    return cells, problems


def check_doc_grammar(
    doc_paths: Sequence[Path],
) -> Tuple[int, List[str]]:
    """Every ``--decoder`` example in the docs must be valid."""
    problems: List[str] = []
    canonical = {spec.name: spec for spec in list_decoders()}
    examples = 0
    for doc in doc_paths:
        if not doc.exists():
            problems.append(f"documentation file {doc} is missing")
            continue
        text = doc.read_text(encoding="utf-8")
        for match in _DOC_DECODER_PATTERN.finditer(text):
            token = match.group(1).rstrip(".,;")
            # Skip the grammar placeholder itself (NAME[:KEY=...]).
            if token.upper() == token:
                continue
            examples += 1
            where = (
                f"{doc.name}:"
                f"{text.count(chr(10), 0, match.start()) + 1}"
            )
            try:
                name, params = parse_decoder_arg(token)
            except Exception as error:
                problems.append(
                    f"{where}: --decoder {token!r} does not "
                    f"parse: {error}"
                )
                continue
            spec = canonical.get(name)
            if spec is None:
                problems.append(
                    f"{where}: --decoder names {name!r}, not a "
                    f"registered decoder"
                )
                continue
            unknown = sorted(set(params) - set(spec.graph_params))
            if unknown:
                problems.append(
                    f"{where}: --decoder {token!r} uses "
                    f"parameters {unknown} not declared by "
                    f"{name!r} (known: {sorted(spec.graph_params)})"
                )
            rebuilt = format_decoder_arg(name, params)
            reparsed = parse_decoder_arg(rebuilt)
            if reparsed != (name, params):
                problems.append(
                    f"{where}: --decoder {token!r} does not "
                    f"round-trip through format_decoder_arg "
                    f"({rebuilt!r} -> {reparsed!r})"
                )
    return examples, problems


def default_doc_paths() -> List[Path]:
    """README.md / EXPERIMENTS.md next to the package checkout."""
    repo = Path(__file__).resolve().parents[3]
    return [repo / "README.md", repo / "EXPERIMENTS.md"]


def verify_matrix(
    doc_paths: Optional[Sequence[Path]] = None,
) -> "MatrixVerification":
    """Run every static matrix check; nothing is sampled or decoded."""
    decoders = list_decoders()
    problems = check_registry(decoders)
    problems.extend(check_engines())
    cells, exp_problems = check_experiment_matrix(decoders)
    problems.extend(exp_problems)
    docs = (
        list(doc_paths)
        if doc_paths is not None
        else default_doc_paths()
    )
    examples, doc_problems = check_doc_grammar(docs)
    problems.extend(doc_problems)
    return MatrixVerification(
        decoders=[spec.name for spec in decoders],
        engines=sorted(ENGINES),
        experiments=sorted(EXPERIMENT_REQUIREMENTS),
        cells=cells,
        doc_examples=examples,
        problems=problems,
    )


@dataclass
class MatrixVerification:
    """Everything :func:`verify_matrix` established."""

    decoders: List[str]
    engines: List[str]
    experiments: List[str]
    cells: List[MatrixCell]
    doc_examples: int
    problems: List[str]

    @property
    def passed(self) -> bool:
        return not self.problems
