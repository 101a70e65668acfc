"""Command-line verbs, exercised in process through main()."""

import csv
import json

import pytest

from hitmin import InvalidParameter, ShortcutSet, evaluate, load_instance
from hitmin.cli import CSV_HEADER, main, parse_gen_spec


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def strip_wall(rows):
    return [{k: v for k, v in row.items() if k != "wall_ms"} for row in rows]


def test_gen_writes_instance_files(tmp_path):
    prefix = tmp_path / "p5"
    assert main(["gen", "--spec", "path;length=5;blue=2", "--out-prefix", str(prefix)]) == 0
    edges = (tmp_path / "p5.edges").read_text().strip().splitlines()
    parts = (tmp_path / "p5.partition").read_text().strip().splitlines()
    assert len(edges) == 4
    assert len(parts) == 5


def test_eval_reports_both_objectives(tmp_path, capsys):
    assert main(["eval", "--gen", "path;length=5;blue=2", "--shortcuts", "0,4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"g": 2.0, "f": 2.0, "edges": 2}
    assert main(["eval", "--gen", "path;length=5;blue=2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"g": 3.5, "f": 4.0, "edges": 0}


def test_eval_roundtrips_generated_files(tmp_path, capsys):
    prefix = tmp_path / "p5"
    main(["gen", "--spec", "path;length=5;blue=2", "--out-prefix", str(prefix)])
    capsys.readouterr()
    rc = main(["eval", "--edges", str(prefix) + ".edges",
               "--partition", str(prefix) + ".partition", "--shortcuts", "0"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["g"] == 2.75


def test_eval_reads_endpoints_as_node_names(tmp_path, capsys):
    # file node names are numbered by first appearance when loaded, so the
    # loaded index of a name differs from the generated index it spells
    spec = "planted;n_red=6;n_blue=6;p_in=0.5;p_out=0.2;seed=3"
    prefix = str(tmp_path / "planted")
    assert main(["gen", "--spec", spec, "--out-prefix", prefix]) == 0
    capsys.readouterr()
    generated = parse_gen_spec(spec, None)
    loaded = load_instance(prefix + ".edges", prefix + ".partition")
    assert [loaded.name_of(v) for v in range(loaded.n)] != [
        str(v) for v in range(loaded.n)]
    for r in generated.red_ids:
        name = str(r)
        assert main(["eval", "--edges", prefix + ".edges",
                     "--partition", prefix + ".partition",
                     "--shortcuts", name]) == 0
        out = json.loads(capsys.readouterr().out)
        shortcuts = ShortcutSet((loaded.index_of(name),))
        assert out == {"g": evaluate(loaded, shortcuts, "avg"),
                       "f": evaluate(loaded, shortcuts, "max"), "edges": 1}
        for key, objective in (("g", "avg"), ("f", "max")):
            assert out[key] == pytest.approx(
                evaluate(generated, ShortcutSet((int(r),)), objective),
                rel=1e-12, abs=0)


def test_run_sweep_frozen_rows(tmp_path):
    out = tmp_path / "res.csv"
    rc = main(["run", "--gen", "path;length=5;blue=2", "--algorithms", "greedy",
               "--fractions", "0.25,0.5", "--seed", "1", "--output", str(out)])
    assert rc == 0
    with open(out) as fh:
        header = fh.readline().strip().split(",")
    assert header == CSV_HEADER
    rows = read_rows(out)
    # sequential algorithms log one row per incremental edge
    assert [(r["k"], r["edges"], r["g_exact"], r["f_exact"]) for r in rows] == [
        ("1", "1", "2.75", "4.0"),
        ("2", "1", "2.75", "4.0"),
        ("2", "2", "2.0", "2.0"),
    ]
    assert all(r["error"] == "" for r in rows)
    meta = json.loads((tmp_path / "res.csv.meta.json").read_text())
    assert meta["algorithms"] == ["greedy"]
    assert meta["fractions"] == [0.25, 0.5]
    assert meta["instance"]["nodes"] == 5


def test_run_sweep_deterministic_modulo_timing(tmp_path):
    args = ["run", "--gen", "planted;n_red=8;n_blue=8;p_in=0.5;p_out=0.2;seed=2",
            "--algorithms", "greedy,pure_random,top_hitting", "--fractions", "0.25",
            "--reps", "3", "--seed", "9"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert strip_wall(read_rows(a)) == strip_wall(read_rows(b))


def test_run_sweep_gives_each_rep_its_own_seed(tmp_path):
    out = tmp_path / "r.csv"
    main(["run", "--gen", "planted;n_red=8;n_blue=8;p_in=0.5;p_out=0.2;seed=2",
          "--algorithms", "pure_random", "--fractions", "0.4", "--reps", "4",
          "--seed", "9", "--output", str(out)])
    rows = read_rows(out)
    assert len(rows) == 4
    assert len({r["seed"] for r in rows}) == 4
    assert {r["rep"] for r in rows} == {"0", "1", "2", "3"}


def test_run_records_cell_failures_and_continues(tmp_path):
    # guarantee mode rejects this epsilon at k=2; the row carries the error
    out = tmp_path / "err.csv"
    rc = main(["run", "--gen", "path;length=5;blue=2", "--algorithms", "greedy_plus",
               "--fractions", "0.5", "--reps", "1", "--seed", "3", "--guarantee",
               "--epsilon", "0.3", "--output", str(out)])
    assert rc == 0
    rows = read_rows(out)
    assert len(rows) == 1
    assert "InvalidParameter" in rows[0]["error"]
    assert rows[0]["g_exact"] == ""


def test_run_requires_seed_for_randomized(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--gen", "path;length=5;blue=2", "--algorithms", "pure_random",
              "--output", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_run_rejects_bad_algorithm_lists(tmp_path, capsys):
    rc = main(["run", "--gen", "path;length=5;blue=2", "--algorithms", "bogus",
               "--seed", "1", "--output", str(tmp_path / "x.csv")])
    assert rc == 2
    rc = main(["run", "--gen", "path;length=5;blue=2", "--algorithms", "",
               "--seed", "1", "--output", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flags, config", [
    (["--fractions", ""], {"fractions": []}),
    (["--reps", "0"], {"reps": 0}),
])
def test_run_rejects_an_empty_grid(tmp_path, capsys, flags, config):
    base = ["run", "--gen", "path;length=5;blue=2", "--algorithms", "greedy,pure_random",
            "--seed", "1", "--output", str(tmp_path / "x.csv")]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    for extra in (flags, ["--config", str(cfg)]):
        assert main(base + extra) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "x.csv").exists()


def test_config_file_overrides_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"algorithms": "top_hitting", "fractions": "0.5"}))
    out = tmp_path / "cfg.csv"
    rc = main(["run", "--gen", "path;length=5;blue=2", "--seed", "1",
               "--config", str(cfg), "--output", str(out)])
    assert rc == 0
    rows = read_rows(out)
    assert {r["algorithm"] for r in rows} == {"top_hitting"}
    cfg.write_text(json.dumps({"not_a_key": 1}))
    rc = main(["run", "--gen", "path;length=5;blue=2", "--seed", "1",
               "--config", str(cfg), "--output", str(out)])
    assert rc == 2


@pytest.mark.parametrize("text, message", [
    ('{"reps": 3,', "is not valid JSON"),
    ('{"reps": "3"}', "config key 'reps' must be int, got '3'"),
    ('{"epsilon": true}', "config key 'epsilon' must be float, got True"),
    ('{"fractions": "0.5,x"}', "config key 'fractions': could not convert"),
    ('{"algorithms": ["greedy", 1]}', "config key 'algorithms' must be a list of str"),
])
def test_bad_config_file_is_a_clean_error(tmp_path, capsys, text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    rc = main(["run", "--gen", "path;length=5;blue=2", "--seed", "1",
               "--config", str(cfg), "--output", str(tmp_path / "cfg.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_verify_verb(tmp_path, capsys):
    assert main(["verify", "--gen", "path;length=5;blue=2", "--level", "fast"]) == 0
    assert "[PASS]" in capsys.readouterr().out


def test_verify_surfaces_load_errors(tmp_path, capsys):
    (tmp_path / "d.edges").write_text("a b\nc d\n")
    (tmp_path / "d.partition").write_text("a R\nb B\nc R\nd B\n")
    rc = main(["verify", "--edges", str(tmp_path / "d.edges"),
               "--partition", str(tmp_path / "d.partition")])
    assert rc == 2
    assert "unreachable" in capsys.readouterr().err


def test_missing_file_is_a_clean_error(tmp_path, capsys):
    rc = main(["eval", "--edges", str(tmp_path / "no.edges"),
               "--partition", str(tmp_path / "no.partition")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_parse_gen_spec_families():
    inst = parse_gen_spec("planted;n_red=5;n_blue=5;p_in=0.5;p_out=0.2;seed=4")
    assert inst.n == 10
    inst = parse_gen_spec("lollipop;path_len=3;clique_size=3")
    assert inst.n == 6
    inst = parse_gen_spec("star_path_clique;n=16")
    assert inst.n == 20


def test_parse_gen_spec_rejects_malformed():
    with pytest.raises(InvalidParameter):
        parse_gen_spec("ring;n=5")
    with pytest.raises(InvalidParameter):
        parse_gen_spec("path;length")
    with pytest.raises(InvalidParameter):
        parse_gen_spec("path;length=5;blue=2;bogus=1")
    with pytest.raises(InvalidParameter):
        parse_gen_spec("path;length=5")
    # only the documented family names are accepted
    with pytest.raises(InvalidParameter):
        parse_gen_spec("star-path-clique;n=16")
    with pytest.raises(InvalidParameter):
        parse_gen_spec("planted_two_community;n_red=5;n_blue=5;p_in=0.5;p_out=0.2")


def test_run_sweep_records_assertion_failures_and_continues(tmp_path, monkeypatch):
    # a HittingProfile sanity bound raises AssertionError; only its cell fails
    import hitmin.cli

    def violated(instance, k):
        raise AssertionError("max/mean hitting-time ratio bound violated")

    monkeypatch.setattr(hitmin.cli, "top_hitting_baseline", violated)
    out = tmp_path / "assert.csv"
    rc = main(["run", "--gen", "path;length=5;blue=2",
               "--algorithms", "greedy,top_hitting", "--fractions", "0.5",
               "--seed", "1", "--output", str(out)])
    assert rc == 0
    rows = read_rows(out)
    failed = [r for r in rows if r["algorithm"] == "top_hitting"]
    assert len(failed) == 1
    assert failed[0]["error"].startswith("AssertionError")
    assert failed[0]["g_exact"] == ""
    greedy = [r for r in rows if r["algorithm"] == "greedy"]
    assert [(r["edges"], r["g_exact"]) for r in greedy] == [("1", "2.75"), ("2", "2.0")]
    assert all(r["error"] == "" for r in greedy)


def test_run_sweep_failed_quasi_metric_fails_each_asymm_cell(tmp_path, monkeypatch):
    import hitmin.cli
    from hitmin import SolverFailure

    builds = []

    def failing(instance):
        builds.append(instance)
        raise SolverFailure("residual above the gate")

    monkeypatch.setattr(hitmin.cli, "build_quasi_metric", failing)
    out = tmp_path / "qm.csv"
    assert main(["run", "--gen", "path;length=5;blue=2", "--algorithms", "asymm,greedy",
                 "--fractions", "0.25,0.5", "--output", str(out)]) == 0
    rows = read_rows(out)
    asymm = [r for r in rows if r["algorithm"] == "asymm"]
    assert [r["error"] for r in asymm] == ["SolverFailure: residual above the gate"] * 2
    assert len(builds) == 2
    assert all(r["error"] == "" for r in rows if r["algorithm"] == "greedy")


def test_run_sweep_runs_every_algorithm(monkeypatch):
    # every algorithm through one sweep, with the call shapes callers of
    # hitmin.cli rely on when they patch its bindings
    import hitmin.cli
    from hitmin import gen_planted_two_community
    from hitmin.cli import ALGORITHMS, RANDOMIZED, build_parser, run_sweep

    calls = []

    def recording(name):
        fn = getattr(hitmin.cli, name)

        def call(*args, **kwargs):
            calls.append((name, args[2:], sorted(kwargs)))
            return fn(*args, **kwargs)
        return call

    for name in ("greedy_exact", "kcenter_shortcuts", "pure_random",
                 "top_hitting_baseline", "build_quasi_metric"):
        monkeypatch.setattr(hitmin.cli, name, recording(name))

    inst = gen_planted_two_community(4, 4, 0.6, 0.3, 3)
    args = build_parser().parse_args([
        "run", "--gen", "unused", "--algorithms", ",".join(ALGORITHMS),
        "--fractions", "0.25,0.5", "--reps", "2", "--seed", "5", "--output", "unused",
    ])
    rows = run_sweep(inst, args)
    assert all(r["error"] == "" for r in rows)
    assert {r["algorithm"] for r in rows} == set(ALGORITHMS)
    for r in rows:
        assert (r["seed"] != "") == (r["algorithm"] in RANDOMIZED)
    by_algo = {a: [r for r in rows if r["algorithm"] == a] for a in ALGORITHMS}
    assert [r["eval_count"] for r in by_algo["asymm"]] == [inst.red_count + 1] * 2
    assert [r["eval_count"] for r in by_algo["pure_random"]] == [0] * 4
    assert [r["eval_count"] for r in by_algo["top_hitting"]] == [1, 1]
    _, trace = hitmin.greedy_exact(inst, 2, epsilon=args.epsilon)
    for a in ("greedy", "bmah_route"):
        for k in (1, 2):
            cell = [r for r in by_algo[a] if r["k"] == k]
            assert [r["edges"] for r in cell] == list(range(1, k + 1))
            assert [r["eval_count"] for r in cell] == [
                e.evaluations for e in trace.entries[:k]]
    for rep in (0, 1):
        edges = [r["edges"] for r in by_algo["greedy_plus"] if r["rep"] == rep]
        assert edges == [1, 1, 2]

    # one call per cell; the second greedy cell resumes the first
    assert [c for c in calls if c[0] == "greedy_exact"] == [
        ("greedy_exact", (), ["epsilon"]), ("greedy_exact", (), ["epsilon", "resume"])]
    assert [c for c in calls if c[0] == "pure_random"] == [
        ("pure_random", (int(r["seed"]),), []) for r in by_algo["pure_random"]]
    # one kcenter_shortcuts call per asymm cell, one quasi-metric per sweep
    assert [c for c in calls if c[0] == "kcenter_shortcuts"] == [
        ("kcenter_shortcuts", (), ["quasi_metric"])] * 2
    assert [c for c in calls if c[0] == "build_quasi_metric"] == [
        ("build_quasi_metric", (), [])]
    assert [c for c in calls if c[0] == "top_hitting_baseline"] == [
        ("top_hitting_baseline", (), [])] * 2


@pytest.mark.parametrize("spec", [
    "planted;n_red=8;n_blue=8;p_in=0.5;p_out=0.2;seed=2",
    "path;length=5;blue=2",
])
def test_run_sweep_shared_work_matches_cells_run_alone(monkeypatch, spec):
    # 0.5 and 0.45 give one budget on both graphs (path5 has 4 red nodes,
    # the planted graph 8), and 0.25 a smaller one after a larger
    import hitmin.cli
    from hitmin.cli import ALGORITHMS, build_parser, run_sweep

    inst = parse_gen_spec(spec)
    args = build_parser().parse_args([
        "run", "--gen", spec, "--algorithms", ",".join(ALGORITHMS),
        "--fractions", "0.5,0.25,0.45", "--reps", "2", "--seed", "5", "--output", "unused",
    ])
    builds = []
    build = hitmin.cli.build_quasi_metric

    def counting(instance):
        builds.append(instance)
        return build(instance)

    monkeypatch.setattr(hitmin.cli, "build_quasi_metric", counting)
    shared = run_sweep(inst, args)
    assert strip_wall(run_sweep(inst, args)) == strip_wall(shared)
    # the quasi-metric is built once per call, never kept across calls
    assert len(builds) == 2
    assert all(isinstance(v, (int, str)) for r in shared for v in r.values())

    class RunAlone(hitmin.cli._SweepMemo):
        """Each cell from scratch, each row scored by evaluate avg and max."""

        def greedy_kwargs(self):
            return {}

        def quasi_metric(self):
            return build(self.instance)

        def score(self, shortcuts):
            return (evaluate(self.instance, shortcuts, "avg"),
                    evaluate(self.instance, shortcuts, "max"))

    monkeypatch.setattr(hitmin.cli, "_SweepMemo", RunAlone)
    alone = run_sweep(inst, args)
    assert len(builds) == 2
    assert all(r["error"] == "" for r in alone)
    assert {r["algorithm"] for r in alone} == set(ALGORITHMS)
    assert strip_wall(shared) == strip_wall(alone)
