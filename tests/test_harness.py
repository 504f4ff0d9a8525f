import json
import subprocess
import sys
from fractions import Fraction

import pytest

from twoec import harness, oracle
from twoec.cli import main as cli_main
from twoec.credit import LedgerError
from twoec.graph import GraphError, MultiGraph


def test_parse_triangle():
    g = harness.parse_graph("3 3\n0 1\n1 2\n2 0")
    assert g.n == 3 and g.m == 3


def test_parse_parallel_preserved():
    g = harness.parse_graph("2 2\n0 1\n0 1")
    assert g.m == 2
    assert g.edges[0] == g.edges[1]


def test_parse_out_of_range():
    with pytest.raises(GraphError):
        harness.parse_graph("2 1\n0 2")


@pytest.mark.parametrize("text", ["a b\n", "3\n", "2 1\n0 x", "2 1\n0 1 1",
                                  "-1 0\n"])
def test_parse_rejects_malformed(text):
    with pytest.raises(GraphError):
        harness.parse_graph(text)


def test_parse_comments_and_roundtrip():
    text = "# sample\n4 4\n0 1\n1 2\n2 3\n3 0  # closing edge\n"
    g = harness.parse_graph(text)
    assert g.m == 4
    again = harness.parse_graph(harness.serialize_graph(g))
    assert again.edges == g.edges and again.n == g.n


def test_verify_pass_and_fail():
    g = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert harness.verify(g, {0, 1, 2, 3})["ok"]
    rep = harness.verify(g, {0, 1, 2})
    assert not rep["ok"]


def test_verify_minimality():
    import itertools
    g = MultiGraph(4, list(itertools.combinations(range(4), 2)))
    from twoec.oracle import exact_min_2ecss
    sol = exact_min_2ecss(g)
    rep = harness.verify(g, sol, minimality=True)
    assert rep["ok"] and rep["minimal"]


def test_generate_kinds():
    for kind, kw in (("random2ec", {"n": 9, "p": 0.4}),
                     ("hub_c4", {"k": 3}),
                     ("nice_c5_complex", {}),
                     ("branch_fig", {}),
                     ("vertex2_b", {}),
                     ("cycle4", {})):
        g = harness.generate(kind, seed=5, **kw)
        assert harness.verify(g, set(range(g.m)))["ok"]


def test_generate_unknown_kind():
    with pytest.raises(ValueError):
        harness.generate("nope")


def test_solve_c10_trivial():
    g = MultiGraph(10, [(i, (i + 1) % 10) for i in range(10)])
    sol, rep = harness.solve(g, harness.SolverConfig(profile="desk",
                                                     with_oracle=True))
    assert rep.solution_size == 10 and rep.ratio == 1


def test_solve_petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    g = MultiGraph(10, outer + inner + spokes)
    sol, rep = harness.solve(g, harness.SolverConfig(profile="desk",
                                                     with_oracle=True))
    assert rep.solution_size == 11 and rep.ratio == 1


@pytest.mark.parametrize("mode", ["auto", "exact", "few"])
def test_opt_computed_once(mode, monkeypatch):
    """An exact solve (exact mode, or an auto-mode trace whose root is
    BruteForce) is its own OPT; FEW still asks the oracle for it."""
    g = harness.generate("random2ec", seed=3, n=10, p=0.3)
    opt = len(oracle.exact_min_2ecss(g))
    calls = []
    real = oracle.exact_min_2ecss

    def counting(*args, **kw):
        calls.append(args)
        return real(*args, **kw)

    monkeypatch.setattr(oracle, "exact_min_2ecss", counting)
    sol, rep = harness.solve(g, harness.SolverConfig(profile="desk", mode=mode,
                                                     with_oracle=True))
    assert len(calls) == 1
    assert rep.opt == opt and rep.ratio == Fraction(len(sol), opt)
    if mode == "auto":
        assert rep.trace["step"] == "BruteForce"


def test_determinism_same_seed():
    g = harness.generate("random2ec", seed=11, n=11, p=0.5)
    cfg = harness.SolverConfig(profile="desk", mode="auto", seed=3,
                               with_oracle=True)
    sol1, rep1 = harness.solve(g, cfg)
    sol2, rep2 = harness.solve(g, cfg)
    assert sol1 == sol2
    j1, j2 = rep1.to_json(), rep2.to_json()
    j1.pop("wall_time")
    j2.pop("wall_time")
    assert j1 == j2


def test_report_serialization_exact_rationals():
    g = harness.generate("hub_c4", k=3)
    sol, rep = harness.solve(g, harness.SolverConfig(profile="desk",
                                                     mode="many",
                                                     with_oracle=True))
    js = rep.to_json()
    assert js["ratio"]["exact"].count("/") <= 1
    json.dumps(js)   # must be serializable


def test_cli_roundtrip(tmp_path):
    gfile = tmp_path / "g.txt"
    out = tmp_path / "rep.json"
    assert cli_main(["gen", "hub_c4", "--k", "3", "-o", str(gfile)]) == 0
    assert cli_main(["solve", str(gfile), "--profile", "desk", "--oracle",
                     "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["verified"]
    sol_file = tmp_path / "sol.txt"
    sol_file.write_text(" ".join(str(e) for e in payload["solution"]))
    assert cli_main(["verify", str(gfile), str(sol_file)]) == 0
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1")
    assert cli_main(["verify", str(gfile), str(bad)]) == 1


def test_cli_exit_code_tracks_verify(tmp_path):
    gfile = tmp_path / "g.txt"
    gfile.write_text("4 4\n0 1\n1 2\n2 3\n3 0\n")
    assert cli_main(["solve", str(gfile), "--profile", "desk"]) == 0


def _cli_error(capsys, argv):
    """Exit code and stderr JSON body of a CLI run that fails."""
    code = cli_main(argv)
    body = json.loads(capsys.readouterr().err)
    assert set(body) == {"error", "message"}
    return code, body["error"]


def test_cli_bad_header(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    gfile.write_text("3\n0 1\n")
    assert _cli_error(capsys, ["solve", str(gfile)]) == (3, "GraphError")


def test_cli_not_two_edge_connected(tmp_path, capsys):
    gfile = tmp_path / "path.txt"
    gfile.write_text("3 2\n0 1\n1 2\n")
    assert _cli_error(capsys, ["solve", str(gfile), "--profile", "desk"]) == \
        (4, "NotTwoEdgeConnected")


def test_cli_no_progress(tmp_path, capsys):
    gfile = tmp_path / "ring.txt"
    assert cli_main(["gen", "shortcut_ring", "--k", "10", "-o", str(gfile)]) == 0
    assert _cli_error(capsys, ["solve", str(gfile), "--profile", "desk",
                               "--mode", "few"]) == (7, "NoProgress")


@pytest.mark.parametrize("exc,code", [
    (oracle.TooLarge("cover search budget exhausted"), 5),
    (oracle.Infeasible("no feasible cover under the forbidden-cycle rule"), 6),
    (LedgerError("initial cost - loan exceeds the FEW starting bound"), 8),
])
def test_cli_typed_solver_errors(exc, code, tmp_path, capsys, monkeypatch):
    def failing(g, config):
        raise exc

    monkeypatch.setattr(harness, "solve", failing)
    gfile = tmp_path / "g.txt"
    gfile.write_text("4 4\n0 1\n1 2\n2 3\n3 0\n")
    assert _cli_error(capsys, ["solve", str(gfile)]) == (code, type(exc).__name__)


def test_oracle_limit_env(monkeypatch):
    monkeypatch.setenv("TWOEC_ORACLE_LIMIT", "11")
    cfg = harness.SolverConfig(profile="desk")
    assert cfg.params().oracle_limit == 11
    monkeypatch.delenv("TWOEC_ORACLE_LIMIT")
    assert harness.SolverConfig(profile="desk").params().oracle_limit == 14


def test_pipeline_total_on_random_instances():
    # both forced branches must return verified covers on arbitrary small
    # 2EC inputs (fallback repairs may fire; feasibility never breaks)
    import random
    from twoec.harness import cover_pipeline
    from twoec.oracle import _two_ec_on
    from twoec.params import desk_params
    P = desk_params()
    for i in range(12):
        rnd = random.Random(999 + i)
        g = harness.generate("random2ec", seed=880 + i,
                             n=rnd.randint(6, 12),
                             p=rnd.choice([0.35, 0.6, 0.85]))
        for mode in ("few", "many"):
            sol, stats = cover_pipeline(g, P, mode=mode, strict=False)
            assert _two_ec_on(g, sol)


def test_paper_profile_base_case():
    # with the published constants every desk-scale instance is solved in
    # the exact base case
    g = harness.generate("random2ec", seed=3, n=10, p=0.5)
    sol, rep = harness.solve(g, harness.SolverConfig(profile="paper",
                                                     with_oracle=True))
    assert rep.verified and rep.ratio == 1


def test_report_schema_stable():
    g = harness.generate("random2ec", seed=1, n=8, p=0.5)
    _, rep = harness.solve(g, harness.SolverConfig(profile="desk",
                                                   with_oracle=True))
    keys = set(rep.to_json())
    assert {"n", "m", "mode", "profile", "seed", "h0_size", "beta", "branch",
            "step_counts", "pipeline_steps", "waivers", "solution_size",
            "opt", "ratio", "verified", "wall_time"} <= keys
