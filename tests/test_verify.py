"""Self-check suite plumbing."""

import re

import numpy as np
import pytest

import hitmin.verify
from hitmin import (EstimatorConfig, SolverFailure, candidate_endpoints,
                    estimate_mean_hitting, gen_planted_two_community,
                    has_failure, load_instance, run_checks, summarize)
from hitmin.cli import main, parse_gen_spec


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


def test_fast_level_gates_coverage_on_the_kernels_cost():
    # the gate counts walk length x starts x count-table cells: planted
    # 20/20's five estimates take a fraction of a second and run; planted
    # 200/200's take about a minute and skip, naming the unit
    small = parse_gen_spec("planted;n_red=20;n_blue=20;p_in=0.3;p_out=0.1;seed=1", None)
    status = {r.name: r.status for r in run_checks(small, level="fast")}
    assert status["estimator-coverage"] == "pass"
    large = gen_planted_two_community(200, 200, 0.1, 0.01, 5)
    skipped = hitmin.verify._check_estimator_coverage(large, None, "fast")
    assert skipped.status == "skip"
    assert "walk length x starts x count-table cells" in skipped.detail


@pytest.mark.parametrize("spec", ["path;length=5;blue=2",
                                  "planted;n_red=20;n_blue=20;p_in=0.3;p_out=0.1;seed=1"])
def test_coverage_check_resolves_the_estimators_knobs(spec):
    inst = parse_gen_spec(spec, None)
    detail = {r.name: r.detail for r in run_checks(inst, level="fast")}
    est = estimate_mean_hitting(inst, None, EstimatorConfig(epsilon=0.2, delta=0.1,
                                                            guarantee=True))
    assert detail["estimator-coverage"].endswith(
        f", walk length {est.walk_length}, {est.samples_per_node} walks per node")


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
                                   SolverFailure("ratio bound violated")])
def test_failed_solve_is_a_fail_line(monkeypatch, capsys, path5, error):
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


def test_details_name_nodes_as_the_files_do(monkeypatch, tmp_path, capsys):
    # loading numbers the file's names by first appearance: the blue nodes
    # named "11" and "6" get indices 7 and 9
    spec = "planted;n_red=6;n_blue=6;p_in=0.5;p_out=0.2;seed=3"
    prefix = str(tmp_path / "planted")
    assert main(["gen", "--spec", spec, "--out-prefix", prefix]) == 0
    edges, partition = prefix + ".edges", prefix + ".partition"
    assert main(["verify", "--edges", edges, "--partition", partition]) == 0
    assert "[PASS] endpoint-invariance: red 0 to blue [11, 6]: " in capsys.readouterr().out
    # a generated instance has no names and prints its indices
    detail = {r.name: r.detail for r in run_checks(parse_gen_spec(spec, None))}
    assert detail["endpoint-invariance"].startswith("red 0 to blue [6, 7]: ")

    # force the Monte Carlo and monotonicity failure lines
    inst = load_instance(edges, partition)
    picked = []

    def far_off(instance, picks, trials, seed):
        picked.extend(picks)
        return np.full(len(picks), 1e6), np.ones(len(picks))

    def last_first(instance, shortcuts):
        return candidate_endpoints(instance, shortcuts)[::-1]

    # every objective after a shortcut above the base instance's
    rising = iter(range(100, 200))
    monkeypatch.setattr(hitmin.verify, "empirical_hitting", far_off)
    monkeypatch.setattr(hitmin.verify, "candidate_endpoints", last_first)
    monkeypatch.setattr(hitmin.verify, "_objectives",
                        lambda instance, shortcuts: (next(rising),) * 2)
    detail = {r.name: r.detail for r in run_checks(inst)}
    names = [inst.name_of(u) for u in picked]
    assert names != [str(u) for u in picked]
    assert re.findall(r"node (\w+): mc=", detail["monte-carlo-agreement"]) == names
    last = candidate_endpoints(inst)[-1]
    assert inst.name_of(last) != str(last)
    assert detail["shortcut-monotonicity"].startswith(f"adding {inst.name_of(last)} raised")
