import json
import math
import os

import pytest

from dynmatch.graph import UpdateEvent, read_stream, write_stream
from dynmatch import harness
from dynmatch.cli import main as cli_main
from dynmatch.estimator import Estimator, EstimatorConfig
from dynmatch.harness import (AdaptiveAdversary, InvalidParams,
                              MalformedReport, RunResult, generate_workload,
                              read_report, run_stream, summarize,
                              write_report)


def test_generators_deterministic():
    for w in ("random-er", "random-bipartite", "sliding-window",
              "planted-matching"):
        a = generate_workload(w, 40, seed=3, horizon=200)
        b = generate_workload(w, 40, seed=3, horizon=200)
        assert a == b
        if w != "planted-matching":  # that layout ignores the seed
            assert a != generate_workload(w, 40, seed=4, horizon=200)


def test_planted_matching_known_size():
    ev = generate_workload("planted-matching", 100, seed=0)
    assert len(ev) == 50
    used = set()
    for e in ev:
        assert e.kind == "i"
        assert e.u not in used and e.v not in used
        used.update((e.u, e.v))
    # the horizon cuts the layout like every other workload's stream
    assert generate_workload("planted-matching", 100, seed=0, horizon=0) == []
    assert generate_workload("planted-matching", 100, seed=0,
                             horizon=10) == ev[:10]


def test_sliding_window_evicts_fifo():
    ev = generate_workload("sliding-window", 50, seed=1, horizon=300,
                           window=40)
    live = []
    for e in ev:
        if e.kind == "i":
            live.append(e.edge())
            assert len(live) <= 40
        else:
            assert e.edge() == live.pop(0)


def test_workload_streams_replay_cleanly():
    from dynmatch.graph import DynamicGraph
    for w in ("random-er", "random-bipartite", "sliding-window"):
        ev = generate_workload(w, 30, seed=2, horizon=400)
        g = DynamicGraph(30)
        for e in ev:
            g.apply(e)  # raises on duplicate insert / missing delete


def test_query_interleaving():
    ev = generate_workload("random-er", 20, seed=1, horizon=100,
                           query_every=10)
    kinds = [e.kind for e in ev]
    assert kinds.count("q") == 10
    assert kinds[10] == "q"


def test_unknown_workload_rejected():
    with pytest.raises(InvalidParams):
        generate_workload("nope", 10, seed=0)


@pytest.mark.parametrize("w,n", [
    (w, n) for w in ("random-er", "random-bipartite", "sliding-window",
                     "adaptive-adversary") for n in (0, 1)])
def test_pair_workloads_reject_fewer_than_two_vertices(w, n):
    with pytest.raises(InvalidParams):
        generate_workload(w, n, seed=1, horizon=10)


@pytest.mark.parametrize("w,kw", [
    ("random-er", {"density": 3.0}),
    ("random-er", {"density": 0}),
    ("random-bipartite", {"density": -1}),
    ("adaptive-adversary", {"density": float("nan")}),
    ("sliding-window", {"window": 0}),
    ("random-er", {"horizon": -1}),
    ("adaptive-adversary", {"horizon": -5}),
    ("sliding-window", {"query_every": -1, "window": 10}),
    ("adaptive-adversary", {"query_every": -1}),
    ("adaptive-adversary", {"query_every": 0}),
])
def test_invalid_workload_params_rejected(w, kw):
    with pytest.raises(InvalidParams):
        generate_workload(w, 20, seed=1, **kw)


@pytest.mark.parametrize("kw", [{"oracle_every": -1}])
def test_invalid_run_params_rejected(kw):
    ev = generate_workload("random-er", 10, seed=1, horizon=20)
    with pytest.raises(InvalidParams):
        run_stream(ev, 10, EstimatorConfig(mode="bipartite", eps=0.2), **kw)


def test_adaptive_adversary_logs_reads_and_reacts():
    adv = AdaptiveAdversary(40, seed=1, batch=10)
    b1 = adv.step(0.0)
    assert all(e.kind == "i" for e in b1)
    b2 = adv.step(1e9)  # huge estimate triggers targeted deletions
    assert any(e.kind == "d" for e in b2)
    assert adv.estimate_log == [0.0, 1e9]


def test_adaptive_adversary_turns_aggressive_at_criterion_9_parameters():
    """An estimate is at most n // 2, so the trigger must be reachable: at
    criterion 9's parameters some batch opens with the aggressive branch's
    batch // 2 deletions of the newest edges. Outside that branch a batch
    deletes only to hold the live edge count at the target, one deletion
    between inserts. Only a rising estimate strikes, so the graph still
    grows: a strike after every read would hold it at one batch of edges."""
    n, every = 300, 100
    cfg = EstimatorConfig(mode="bipartite", eps=0.2, seed=1, reps=25)
    ev = generate_workload("adaptive-adversary", n, seed=900, horizon=10**4,
                           density=0.1, query_every=every, cfg=cfg)
    batches, batch = [], []
    live = set()
    for e in ev:
        if e.kind == "q":
            batches.append(batch)
            batch = []
        else:
            batch.append(e)
            (live.add if e.kind == "i" else live.discard)(e.edge())
    assert len(batches) == 100
    assert any(all(e.kind == "d" for e in b[:every // 2])
               for b in batches[1:])
    assert len(live) > every


def test_adaptive_workload_is_replayable():
    from dynmatch.graph import DynamicGraph
    ev = generate_workload("adaptive-adversary", 30, seed=2, horizon=150,
                           query_every=20)
    g = DynamicGraph(30)
    for e in ev:
        g.apply(e)


def test_run_empty_stream():
    res = run_stream([], 10, EstimatorConfig(mode="bipartite", eps=0.2))
    assert res.rows == [] and res.meta["mode"] == "bipartite"
    assert "amortized-provider" in res.meta["deviations"]


def test_run_rows_and_ratios():
    ev = generate_workload("random-bipartite", 40, seed=5, horizon=300,
                           query_every=50)
    res = run_stream(ev, 40, EstimatorConfig(mode="bipartite", eps=0.2,
                                             seed=1, reps=3),
                     oracle_every=1)
    assert len(res.rows) == 6
    for row in res.rows:
        assert row["ratio"] == pytest.approx(row["mu"] / row["nu"])
        assert 1.0 - 1e-9 <= row["ratio"] <= 1 + 1 / 2**0.5 + 0.2 + 1e-9


def test_oracle_cadence_counts_rows():
    """Rows come only from `q` markers, and `oracle_every` means every N-th
    emitted row."""
    cfg = EstimatorConfig(mode="bipartite", eps=0.2, seed=1)
    marked = generate_workload("random-bipartite", 30, seed=2, horizon=300,
                               query_every=20)
    res = run_stream(marked, 30, cfg, oracle_every=3)
    assert [row["t"] for row in res.rows] == list(range(20, 301, 20))
    with_mu = [i for i, row in enumerate(res.rows, 1) if "mu" in row]
    assert with_mu == [3, 6, 9, 12, 15]
    bare = generate_workload("random-bipartite", 30, seed=2, horizon=300)
    assert run_stream(bare, 30, cfg, oracle_every=3).rows == []


def test_rows_lose_mu_where_the_exact_oracle_is_out_of_range():
    """Above 64 touched vertices a non-bipartite graph has no exact mu, so
    its rows carry neither mu nor ratio; at 64 they still do, and a
    bipartite graph keeps mu at any size."""
    q = UpdateEvent("q")
    # a triangle and a path on 3..63: 64 touched vertices, then 65
    events = [UpdateEvent("i", *e) for e in [(0, 1), (1, 2), (0, 2)]]
    events += [UpdateEvent("i", v, v + 1) for v in range(3, 63)]
    events += [q, UpdateEvent("i", 63, 64), q,
               # no odd cycle left: bipartite, 65 and then 301 touched
               UpdateEvent("d", 0, 2), q]
    events += [UpdateEvent("i", v, v + 1) for v in range(64, 300)] + [q]
    for mode in ("bipartite", "general", "tradeoff"):
        rows = run_stream(events, 301, EstimatorConfig(
            mode=mode, eps=0.2, seed=1, reps=3), oracle_every=1).rows
        assert [("mu" in row, "ratio" in row) for row in rows] == [
            (True, True), (False, False), (True, True), (True, True)]
        # one edge of 0, 1, 2 and half of the path from 3 to 63, 64, 300
        assert [row.get("mu") for row in rows] == [31, None, 32, 150]


def test_adaptive_stream_marks_every_read():
    """An adaptive stream holds one `q` per estimate read, and replaying it
    publishes exactly the estimates the adversary read. At density 0.1 the
    reads turn the adversary aggressive, so its updates depend on them."""
    n, horizon, every, density = 40, 300, 50, 0.1
    cfg = EstimatorConfig(mode="bipartite", eps=0.2, seed=3)
    ev = generate_workload("adaptive-adversary", n, seed=3, horizon=horizon,
                           density=density, query_every=every, cfg=cfg)
    # reference: the same adversary and estimator, driven by hand
    adv = AdaptiveAdversary(n, seed=3, batch=every, density=density)
    est = Estimator(n, cfg)
    updates, reads = [], []
    while len(updates) < horizon:
        batch = adv.step(reads[-1] if reads else 0.0)
        batch = batch[:horizon - len(updates)]
        if not batch:
            break
        for e in batch:
            est.apply(e)
        updates.extend(batch)
        reads.append(est.estimate().nu)
    assert len(reads) == 6
    assert adv.estimate_log == [0.0] + reads[:-1]
    assert max(adv.estimate_log) >= adv.trigger
    assert [e for e in ev if e.kind != "q"] == updates
    assert sum(e.kind == "q" for e in ev) == len(reads)
    res = run_stream(ev, n, cfg, oracle_every=1)
    assert [row["nu"] for row in res.rows] == reads
    for row in res.rows:
        assert row["ratio"] is None or row["ratio"] >= 1.0 - 1e-9


@pytest.mark.parametrize("mode", ["bipartite", "general", "tradeoff"])
def test_empty_graph_rows(tmp_path, mode):
    """Rows on an edgeless graph carry nu 0.0 and the integer m1 0, like
    the rows on any other graph."""
    ev = [UpdateEvent("q"), UpdateEvent("i", 0, 1), UpdateEvent("d", 0, 1),
          UpdateEvent("q")]
    res = run_stream(ev, 4, EstimatorConfig(mode=mode, eps=0.2))
    assert [row["nu"] for row in res.rows] == [0.0, 0.0]
    for row in res.rows:
        assert type(row["m1"]) is int and row["m1"] == 0
    path = str(tmp_path / "r.json")
    write_report(path, res)
    rows = open(path).read().splitlines()[1:]
    assert len(rows) == 2 and all('"m1": 0,' in line for line in rows)


def test_report_roundtrip_and_csv(tmp_path):
    ev = generate_workload("random-bipartite", 30, seed=7, horizon=200,
                           query_every=40)
    res = run_stream(ev, 30, EstimatorConfig(mode="bipartite", eps=0.2),
                     oracle_every=1)
    path = str(tmp_path / "r.json")
    write_report(path, res)
    back = read_report(path)
    assert back.meta == json.loads(json.dumps(res.meta))
    assert len(back.rows) == len(res.rows)
    assert os.path.exists(path + ".csv")
    with open(path + ".csv") as fh:
        assert fh.readline() == "t,nu,mu,ratio,m1\n"


def test_malformed_reports_rejected(tmp_path):
    p = str(tmp_path / "bad.json")
    with open(p, "w") as fh:
        fh.write("not json\n")
    with pytest.raises(MalformedReport):
        read_report(p)
    with open(p, "w") as fh:
        fh.write(json.dumps({"type": "row", "t": 1}) + "\n")
    with pytest.raises(MalformedReport):
        read_report(p)  # missing metadata
    meta = json.dumps({"type": "meta", "mode": "bipartite"})
    for row in ({"type": "row", "nu": 1.0}, {"type": "row", "t": "3"},
                {"type": "row", "t": 1.5}):
        with open(p, "w") as fh:
            fh.write(meta + "\n" + json.dumps(row) + "\n")
        with pytest.raises(MalformedReport):
            read_report(p)  # row without an integer update index
    # nu, mu and ratio, where present, are finite numbers (not bools) or
    # null; json writes and reads NaN and Infinity
    ok = {"type": "row", "t": 1, "nu": 1.0, "mu": 1, "ratio": 1.0}
    for key, bad in (("ratio", "1.0"), ("mu", "12"), ("nu", "x"),
                     ("nu", True), ("mu", [1]), ("ratio", math.nan),
                     ("nu", math.inf), ("mu", -math.inf)):
        with open(p, "w") as fh:
            fh.write(meta + "\n" + json.dumps(dict(ok, **{key: bad})) + "\n")
        with pytest.raises(MalformedReport, match=f"line 2: {key} "):
            read_report(p)
    with open(p, "w") as fh:
        fh.write(meta + "\n" + json.dumps(dict(ok, mu=None, ratio=None))
                 + "\n")
    assert summarize(read_report(p))["rows_without_mu"] == 1


def test_summarize_rules():
    meta = {"type": "meta", "mode": "bipartite"}
    rows = [{"type": "row", "t": i, "nu": 1.0, "mu": 1, "ratio": r}
            for i, r in enumerate([1.0, 1.2, 1.5])]
    s = summarize(RunResult(meta=meta, rows=rows), {"ratio_max": 1.907})
    assert s["pass"] and s["ratio_max"] == 1.5
    assert s["rows_without_mu"] == 0
    # single outlier within the 1% allowance rule: with 3 rows, one bad row
    # exceeds the allowance and fails
    rows.append({"type": "row", "t": 3, "nu": 1.0, "mu": 5, "ratio": 5.0})
    s = summarize(RunResult(meta=meta, rows=rows), {"ratio_max": 1.907})
    assert not s["pass"]
    # reports without exact sizes omit ratio quantiles but stay valid
    bare = [{"type": "row", "t": 0, "nu": 2.0}]
    s = summarize(RunResult(meta=meta, rows=bare))
    assert "ratio_max" not in s and s["rows"] == 1
    # a row that lacks `mu` is counted, so a reader sees how many were checked
    s = summarize(RunResult(meta=meta, rows=rows + bare))
    assert s["rows"] == 5 and s["rows_without_mu"] == 1


def test_summarize_counts_a_zero_estimate_outside_the_gate():
    """`run_stream` writes no ratio when nu = 0; below a positive mu such a
    row is an unbounded ratio, so it fails even a quantile-1 gate."""
    meta = {"type": "meta", "mode": "general"}
    rows = [{"type": "row", "t": i, "nu": 10.0, "mu": 11, "ratio": 1.1}
            for i in range(99)]
    gate = {"ratio_max": 1.973, "quantile": 1.0}
    empty = {"type": "row", "t": 99, "nu": 0.0, "mu": 0, "ratio": None}
    assert summarize(RunResult(meta=meta, rows=rows + [empty]), gate)["pass"]
    zero = {"type": "row", "t": 99, "nu": 0.0, "mu": 12, "ratio": None}
    s = summarize(RunResult(meta=meta, rows=rows + [zero]), gate)
    assert not s["pass"] and s["ratio_max"] == 1.1
    # alone, it fails any gate, as a report with no ratio does
    assert not summarize(RunResult(meta=meta, rows=[zero]),
                         {"ratio_max": 1.973})["pass"]


def test_cli_end_to_end(tmp_path, capsys):
    stream = str(tmp_path / "s.txt")
    report = str(tmp_path / "r.json")
    crit = str(tmp_path / "c.json")
    assert cli_main(["gen", "--workload", "random-bipartite", "--n", "30",
                     "--seed", "4", "--out", stream, "--horizon", "200",
                     "--query-every", "50"]) == 0
    assert cli_main(["run", "--stream", stream, "--n", "30", "--mode",
                     "bipartite", "--eps", "0.2", "--seed", "1", "--reps",
                     "3", "--oracle-every", "1", "--report", report]) == 0
    with open(crit, "w") as fh:
        json.dump({"ratio_max": 1.907}, fh)
    assert cli_main(["summarize", "--report", report, "--criteria",
                     crit]) == 0
    with open(crit, "w") as fh:
        json.dump({"ratio_max": 1.0000001}, fh)
    assert cli_main(["summarize", "--report", report, "--criteria",
                     crit]) == 1


def test_cli_runs_are_byte_identical(tmp_path):
    stream = str(tmp_path / "s.txt")
    cli_main(["gen", "--workload", "sliding-window", "--n", "40", "--seed",
              "9", "--out", stream, "--horizon", "300", "--query-every",
              "60"])
    r1, r2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for r in (r1, r2):
        cli_main(["run", "--stream", stream, "--n", "40", "--mode", "general",
                  "--eps", "0.3", "--seed", "2", "--reps", "5",
                  "--oracle-every", "1", "--report", r])
    assert open(r1, "rb").read() == open(r2, "rb").read()


def test_cli_adaptive_general_replay_publishes_the_reads(tmp_path,
                                                         monkeypatch):
    """`gen --reps` sets the repetitions of the estimator the adversary
    reads, so `run` with the same settings publishes exactly those reads."""
    adversaries = []

    class Logged(AdaptiveAdversary):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            adversaries.append(self)

    monkeypatch.setattr(harness, "AdaptiveAdversary", Logged)
    stream = str(tmp_path / "s.txt")
    assert cli_main(["gen", "--workload", "adaptive-adversary", "--n", "40",
                     "--seed", "9", "--density", "0.1", "--horizon", "400",
                     "--query-every", "20", "--mode", "general", "--eps",
                     "0.2", "--reps", "5", "--out", stream]) == 0
    assert open(stream).readline().endswith(
        " mode=general eps=0.2 reps=5\n")
    [adv] = adversaries
    served = {}
    for reps in ("5", "1"):
        report = str(tmp_path / f"r{reps}.json")
        assert cli_main(["run", "--stream", stream, "--n", "40", "--mode",
                         "general", "--eps", "0.2", "--seed", "9", "--reps",
                         reps, "--report", report]) == 0
        served[reps] = [row["nu"] for row in read_report(report).rows]
    # the first step reads nothing; the read after the last batch feeds
    # no further step
    assert adv.estimate_log[0] == 0.0
    assert served["5"][:-1] == adv.estimate_log[1:]
    assert len(served["5"]) == 20
    assert served["1"] != served["5"]


RUN_ARGS = ["--n", "10", "--mode", "bipartite", "--report", "{d}/r.json"]
# criteria files that are not an object of known, finite, numeric gates
CRITERIA = {
    "string-bound.json": '{"ratio_max": "x"}',
    "list.json": "[1]",
    "string-quantile.json": '{"ratio_max": 2, "quantile": "a"}',
    "misspelled.json": '{"ratio_mx": 1.0}',
    "bool-bound.json": '{"ratio_max": true}',
    "nan-bound.json": '{"ratio_max": NaN}',
    "zero-quantile.json": '{"ratio_max": 2, "quantile": 0}',
}


@pytest.mark.parametrize("argv", [
    ["gen", "--workload", "random-er", "--n", "10", "--density", "3",
     "--out", "{d}/x.txt"],
    ["run", "--stream", "{d}/s.txt", "--eps", "2"] + RUN_ARGS,
    ["run", "--stream", "{d}/missing.txt", "--eps", "0.2"] + RUN_ARGS,
    ["run", "--stream", "{d}/far.txt", "--eps", "0.2"] + RUN_ARGS,
    ["summarize", "--report", "{d}/no_t.json"],
    ["summarize", "--report", "{d}/string_ratio.json"],
    ["summarize", "--report", "{d}/nan_ratio.json", "--criteria",
     "{d}/gate.json"],
    ["summarize", "--report", "{d}/infinite_nu.json"],
    ["run", "--stream", "{d}/word.txt", "--eps", "0.2"] + RUN_ARGS,
    ["gen", "--workload", "adaptive-adversary", "--n", "10",
     "--out", "{d}/x.txt"],
] + [["summarize", "--report", "{d}/ok.json", "--criteria",
      "{d}/" + name] for name in CRITERIA],
    ids=["gen-density", "run-eps", "run-missing-stream",
         "run-vertex-out-of-range", "summarize-row-without-t",
         "summarize-string-ratio", "summarize-nan-ratio",
         "summarize-infinite-nu",
         "run-non-integer-vertex", "gen-adaptive-without-reads"]
    + ["criteria-" + name[:-5] for name in CRITERIA])
def test_cli_input_errors_exit_2(tmp_path, capsys, argv):
    """Bad input ends in one `dynmatch: error:` line and exit code 2."""
    (tmp_path / "s.txt").write_text("i 0 1\nq\n")
    (tmp_path / "far.txt").write_text("i 0 50\nq\n")
    (tmp_path / "word.txt").write_text("i 1 x\nq\n")
    (tmp_path / "no_t.json").write_text(
        '{"type": "meta"}\n{"type": "row", "nu": 1.0}\n')
    (tmp_path / "string_ratio.json").write_text(
        '{"type": "meta"}\n'
        '{"type": "row", "t": 1, "nu": 1.0, "mu": 1, "ratio": "1.0"}\n')
    (tmp_path / "nan_ratio.json").write_text(
        '{"type": "meta"}\n'
        '{"type": "row", "t": 1, "nu": 1.0, "mu": 1, "ratio": NaN}\n')
    (tmp_path / "infinite_nu.json").write_text(
        '{"type": "meta"}\n'
        '{"type": "row", "t": 1, "nu": Infinity, "mu": 1, "ratio": 0.0}\n')
    (tmp_path / "ok.json").write_text(
        '{"type": "meta"}\n'
        '{"type": "row", "t": 1, "nu": 1.0, "mu": 1, "ratio": 1.0}\n')
    (tmp_path / "gate.json").write_text('{"ratio_max": 1.907}')
    for name, text in CRITERIA.items():
        (tmp_path / name).write_text(text)
    assert cli_main([a.format(d=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("dynmatch: error: ") and err.count("\n") == 1
    assert "Traceback" not in err
