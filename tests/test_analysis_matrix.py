"""The static capability-matrix checker (``repro analyze matrix``)."""

import json
import textwrap

import pytest

from repro.analysis.matrix import (
    EXPERIMENT_REQUIREMENTS,
    check_doc_grammar,
    check_engines,
    verify_matrix,
)
from repro.decoders.registry import (
    CAP_SPACETIME,
    CAP_WINDOWED,
    RegisteredDecoder,
    register_decoder,
    unregister_decoder,
)


def test_builtin_registry_passes():
    verification = verify_matrix()
    assert verification.passed, verification.problems
    assert set(verification.decoders) >= {
        "lut",
        "mwpm",
        "unionfind",
        "sparse-mwpm",
    }
    assert verification.engines == ["exact", "fast"]
    assert verification.experiments == sorted(
        EXPERIMENT_REQUIREMENTS
    )
    # Every decoder x experiment combination is enumerated -- no
    # silent gaps.
    expected = len(verification.decoders) * len(EXPERIMENT_REQUIREMENTS)
    assert len(verification.cells) == expected
    assert verification.doc_examples > 0


def test_engines_drive_every_windowed_decoder(monkeypatch):
    verification = verify_matrix()
    cells = {
        (cell.decoder, cell.context): cell.supported
        for cell in verification.cells
    }
    # Every builtin is windowed, so it runs the engines' windowed
    # experiments (and serve); the structure is what we pin here.
    for decoder in verification.decoders:
        assert cells[(decoder, "experiment:ler")]
        assert cells[(decoder, "experiment:serve")]
    assert not cells[("lut", "experiment:phenomenological")]
    assert check_engines() == []
    # A core that stops advertising a capability is a named problem.
    from repro.qpdo.packed_core import PackedStabilizerCore

    monkeypatch.setattr(
        PackedStabilizerCore, "supports", lambda self, capability: False
    )
    problems = check_engines()
    assert len(problems) == 4
    assert "engine 'exact'" in problems[0]


def test_broken_registry_entry_fails_matrix():
    # The pinned negative: a capability claimed without its builders
    # must turn into a named problem and a failing report.
    broken = RegisteredDecoder(
        name="broken-test-decoder",
        summary="intentionally inconsistent entry",
        capabilities=frozenset((CAP_WINDOWED, CAP_SPACETIME)),
        window_builder=None,
        space_builder=None,
        spacetime_builder=None,
    )
    register_decoder(broken)
    try:
        verification = verify_matrix()
        assert not verification.passed
        mentioned = [
            p
            for p in verification.problems
            if "broken-test-decoder" in p
        ]
        assert any("window_builder" in p for p in mentioned)
        assert any("spacetime" in p for p in mentioned)
    finally:
        unregister_decoder("broken-test-decoder")
    assert verify_matrix().passed


def test_doc_grammar_rejects_unknown_decoder(tmp_path):
    doc = tmp_path / "README.md"
    doc.write_text("run with --decoder bogus-decoder\n")
    examples, problems = check_doc_grammar([doc])
    assert examples == 1
    assert any("bogus-decoder" in p for p in problems)


def test_doc_grammar_rejects_expired_alias(tmp_path):
    doc = tmp_path / "README.md"
    doc.write_text("run with --decoder batched\n")
    _, problems = check_doc_grammar([doc])
    assert any("'batched'" in p for p in problems)


def test_doc_grammar_rejects_undeclared_param(tmp_path):
    doc = tmp_path / "README.md"
    doc.write_text(
        "run with --decoder unionfind:not_a_param=3\n"
    )
    _, problems = check_doc_grammar([doc])
    assert any("not_a_param" in p for p in problems)


def test_doc_grammar_accepts_valid_examples(tmp_path):
    doc = tmp_path / "README.md"
    doc.write_text(
        textwrap.dedent(
            """
            --decoder unionfind
            --decoder mwpm:time_weight=2.0
            --decoder NAME[:KEY=VALUE,...]  (the grammar itself)
            """
        )
    )
    examples, problems = check_doc_grammar([doc])
    assert problems == []
    assert examples == 2  # the placeholder is not an example


def test_missing_doc_is_a_problem(tmp_path):
    _, problems = check_doc_grammar([tmp_path / "absent.md"])
    assert any("missing" in p for p in problems)


def test_cli_analyze_matrix_json(capsys):
    from repro.cli import main
    from repro.experiments.schemas import REPORT_SCHEMAS

    assert main(["analyze", "matrix", "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["kind"] == "matrix_report"
    assert document["passed"] is True
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(document, REPORT_SCHEMAS["matrix_report"])


def test_cli_analyze_matrix_fails_on_broken_registry(capsys):
    from repro.cli import main

    broken = RegisteredDecoder(
        name="broken-cli-decoder",
        summary="cli negative",
        capabilities=frozenset((CAP_WINDOWED,)),
    )
    register_decoder(broken)
    try:
        assert main(["analyze", "matrix", "--json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["passed"] is False
        assert any(
            "broken-cli-decoder" in p
            for p in document["problems"]
        )
    finally:
        unregister_decoder("broken-cli-decoder")


def test_matrix_report_round_trips():
    from repro.experiments.results import (
        MatrixReport,
        result_from_json,
    )

    verification = verify_matrix()
    report = MatrixReport(
        decoders=verification.decoders,
        engines=verification.engines,
        experiments=verification.experiments,
        cells=[c.to_json_dict() for c in verification.cells],
        doc_examples=verification.doc_examples,
        problems=verification.problems,
        passed=verification.passed,
    )
    rebuilt = result_from_json(report.to_json())
    assert rebuilt == report
