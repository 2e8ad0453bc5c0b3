"""The paper scorecard: every claim holds, and the table is well formed."""

from types import SimpleNamespace

import pytest

from repro.core.report import ServiceReport
from repro.experiments.dataset import SERVICES
from repro.experiments.scorecard import (
    CLAIMS,
    INPUTS,
    Evidence,
    evaluate,
    evaluate_all,
    format_scorecard,
    render,
)

#: Exhibits measured on the three-service dataset alone.
DATASET_EXHIBITS = {
    "Table 1", "Table 3", "Table 4", "Table 5", "Table 6", "Table 7",
    "Fig. 1", "Fig. 3", "Fig. 6", "Fig. 7", "Fig. 10", "Fig. 11", "Fig. 12",
}

#: Every exhibit the repository reproduces.
EXHIBITS = DATASET_EXHIBITS | {
    "Table 8", "Table 9", "Fig. 2", "Validation", "Fairness",
    "Ablation: tau", "Ablation: S-RTO T1", "Ablation: destination cache",
    "Ablation: F-RTO", "Ablation: pacing",
}


@pytest.fixture(scope="module")
def evidence():
    return Evidence()


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: c.id)
def test_claim(claim, evidence):
    verdict = evaluate(claim, evidence)
    assert verdict.holds, f"{claim.claim}: measured {render(verdict.value)}"


def test_claim_ids_are_unique():
    ids = [c.id for c in CLAIMS]
    assert len(ids) == len(set(ids))


def test_every_exhibit_has_a_claim():
    assert EXHIBITS <= {c.exhibit for c in CLAIMS}


def test_one_evaluation_builds_each_input_once(evidence, monkeypatch):
    builds = dict.fromkeys(INPUTS, 0)

    def stand_in(name):
        def build():
            builds[name] += 1
            return evidence[name]

        return build

    for name in INPUTS:
        monkeypatch.setitem(INPUTS, name, stand_in(name))
    evaluate_all(Evidence())
    assert builds == dict.fromkeys(INPUTS, 1)


def test_empty_dataset_fails_every_dataset_row(monkeypatch):
    empty = SimpleNamespace(
        reports={s: ServiceReport(service=s) for s in SERVICES}, runs={}
    )
    monkeypatch.setitem(INPUTS, "dataset", lambda: empty)
    evidence = Evidence()
    rows = [c for c in CLAIMS if c.exhibit in DATASET_EXHIBITS]
    assert [c.id for c in rows if evaluate(c, evidence).holds] == []


def test_markdown_table_has_one_row_per_claim(evidence):
    lines = format_scorecard(evaluate_all(evidence)).splitlines()
    assert lines[0] == "| id | exhibit | claim | paper | reproduced | holds |"
    assert len(lines) == 2 + len(CLAIMS)
    assert render({"x": {"n": 3, "p": 0.12345}, "y": [1, None]}) == (
        "x n 3, p 0.123; y 1, none"
    )
