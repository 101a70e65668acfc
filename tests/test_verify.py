"""Self-check suite plumbing."""

import pytest

from hitmin import (SolverFailure, gen_planted_two_community, has_failure,
                    run_checks, summarize)
from hitmin.cli import main


def test_path5_fast_checks_pass(path5):
    results = run_checks(path5, level="fast")
    assert not has_failure(results)
    statuses = {r.name: r.status for r in results}
    # path-5 has no red node with two spare blue partners to swap between
    assert statuses["endpoint-invariance"] == "skip"
    assert statuses["hitting-profile"] == "pass"


def test_planted_full_checks_pass():
    inst = gen_planted_two_community(14, 14, 0.4, 0.15, 77)
    results = run_checks(inst, level="full")
    assert not has_failure(results)
    statuses = {r.name: r.status for r in results}
    assert statuses["endpoint-invariance"] == "pass"
    assert statuses["triangle-inequality"] == "pass"
    assert statuses["supermodular-pairs"] == "pass"


def test_level_validation(path5):
    with pytest.raises(ValueError):
        run_checks(path5, level="paranoid")


def test_summary_formatting(path5):
    results = run_checks(path5, level="fast")
    text = summarize(results)
    assert "[PASS]" in text
    assert text.strip().endswith("skipped")
    assert not has_failure(results)


@pytest.mark.parametrize("error", [SolverFailure("residual too large"),
                                   AssertionError("ratio bound violated")])
def test_failed_solve_is_a_fail_line(monkeypatch, capsys, path5, error):
    import hitmin.verify

    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(hitmin.verify, "hitting_to_blue", failing)
    results = run_checks(path5, level="fast")
    assert [(r.name, r.status) for r in results] == [("hitting-profile", "fail")]
    assert str(error) in results[0].detail
    assert main(["verify", "--gen", "path;length=5;blue=2"]) == 1
    out = capsys.readouterr()
    assert "[FAIL] hitting-profile" in out.out
    assert "error:" not in out.err
