"""End-to-end command-line checks: formats, determinism, exit codes."""

import json
import subprocess
import sys

import pytest

K4_GRAPH = "graph 4\n0 1 1 1\n1 0 1 1\n1 1 0 1\n1 1 1 0\n"
U24 = "uniform 4 2\n"
WEIGHTS = "weights 2 6\n3 1 4 1 5 9\n2 7 1 8 2 8\n"
WEIGHTS_U24 = "weights 2 4\n1 2 3 4\n4 3 2 1\n"


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, text in [
        ("k4.graph", K4_GRAPH),
        ("u24.matroid", U24),
        ("k4.weights", WEIGHTS),
        ("u24.weights", WEIGHTS_U24),
    ]:
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "matropt.cli", *argv],
        capture_output=True,
        text=True,
    )


class TestCoreCommands:
    def test_ehrhart_k4(self, files):
        res = run_cli("ehrhart", "--matroid", files["k4.graph"])
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["coefficients"] == ["1", "107/30", "21/4", "49/12", "7/4", "7/20"]

    def test_enumerate_trees_k4(self, files):
        res = run_cli("enumerate-trees", "--matroid", files["k4.graph"])
        payload = json.loads(res.stdout)
        assert payload["count"] == 16
        assert payload["laplacian_count"] == 16

    def test_lattice_count_zero(self, files):
        for f in ("k4.graph", "u24.matroid"):
            res = run_cli("lattice-count", "--matroid", files[f], "--k", "0")
            assert json.loads(res.stdout)["count"] == 1

    def test_bases_and_adjacency(self, files):
        res = run_cli("bases", "--matroid", files["u24.matroid"])
        assert json.loads(res.stdout)["count"] == 6
        res = run_cli("adjacency", "--matroid", files["k4.graph"], "--basis", "1,2,3")
        payload = json.loads(res.stdout)
        assert sorted(payload["neighbors"]) == [
            [1, 2, 5], [1, 2, 6], [1, 3, 4], [1, 3, 6], [2, 3, 4], [2, 3, 5],
        ]

    def test_greedy(self, files, tmp_path):
        w = tmp_path / "w1.weights"
        w.write_text("weights 1 6\n6 5 4 3 2 1\n")
        res = run_cli("greedy", "--matroid", files["k4.graph"], "--weights", str(w))
        payload = json.loads(res.stdout)
        assert payload == {"basis": [1, 2, 3], "weight": "15"}

    def test_hstar_and_ehrhart_uniform(self):
        res = run_cli("hstar-uniform", "--n", "4", "--r", "2")
        assert json.loads(res.stdout)["hstar"] == [1, 2, 1]
        res = run_cli("ehrhart-uniform", "--n", "4", "--r", "2")
        assert json.loads(res.stdout)["coefficients"] == ["1", "7/3", "2", "2/3"]

    def test_projected_set_and_pareto(self, files):
        res = run_cli("projected-set", "--matroid", files["u24.matroid"],
                      "--weights", files["u24.weights"])
        payload = json.loads(res.stdout)
        assert payload["points"] == [[3, 7], [4, 6], [5, 5], [6, 4], [7, 3]]
        assert [[5, 5], 2] in payload["fibers"]
        res = run_cli("pareto", "--matroid", files["u24.matroid"],
                      "--weights", files["u24.weights"])
        pareto = json.loads(res.stdout)["points"]
        assert pareto == [[3, 7], [4, 6], [5, 5], [6, 4], [7, 3]]

    def test_check_unimodular(self, files):
        res = run_cli("check-unimodular", "--matroid", files["u24.matroid"])
        payload = json.loads(res.stdout)
        assert payload["all_unimodular"] is True
        assert all(cell["det"] == 2 for cell in payload["cells"])
        assert all(cell["lattice_det"] == 1 for cell in payload["cells"])

    def test_check_unimodular_disconnected(self, tmp_path):
        # Direct sum (a square): the n x n determinant test does not apply,
        # but the lattice-relative one does.
        f = tmp_path / "square.matroid"
        f.write_text("vector 2 4\n1 1 0 0\n0 0 1 1\n")
        res = run_cli("check-unimodular", "--matroid", str(f))
        payload = json.loads(res.stdout)
        assert payload["dimension"] == 2
        assert payload["all_unimodular"] is True
        assert all("det" not in cell for cell in payload["cells"])

    def test_classify_2face(self, files, tmp_path):
        quad = tmp_path / "sq.points"
        quad.write_text("vector 4 4\n1 1 0 0\n1 0 1 0\n0 1 0 1\n0 0 1 1\n")
        res = run_cli("classify-2face", "--matroid", files["u24.matroid"],
                      "--points", str(quad))
        assert json.loads(res.stdout)["classification"] == "not-a-2-face"


class TestStochasticCommands:
    def test_seed_required(self, files):
        res = run_cli("dfbfs", "--matroid", files["k4.graph"], "--weights", files["k4.weights"])
        assert res.returncode == 2  # argparse usage error

    def test_seed_echoed_and_deterministic(self, files):
        args = (
            "dfbfs", "--matroid", files["k4.graph"], "--weights", files["k4.weights"],
            "--seed", "7", "--searches", "5", "--depth", "2",
        )
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout  # byte-identical
        payload = json.loads(first.stdout)
        assert payload["seed"] == 7
        assert payload["params"]["bfs_depth"] == 2

    def test_ls_and_ts(self, files):
        res = run_cli(
            "ls", "--matroid", files["k4.graph"], "--weights", files["k4.weights"],
            "--seed", "1", "--objective", "sqdist", "--target", "9,12",
        )
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["value"] == "0"
        res = run_cli(
            "ts", "--matroid", files["k4.graph"], "--weights", files["k4.weights"],
            "--seed", "1", "--objective", "linear", "--coeff", "1,1",
            "--tabu-limit", "5",
        )
        assert json.loads(res.stdout)["params"]["tabu_limit"] == 5

    def test_pt_pb_btrpt(self, files):
        res = run_cli(
            "pt", "--matroid", files["k4.graph"], "--weights", files["k4.weights"],
            "--seed", "2", "--targets", "9,12;1,1", "--tries", "5",
        )
        payload = json.loads(res.stdout)
        assert payload["points"] == [[9, 12]]
        res = run_cli("pb", "--matroid", files["k4.graph"],
                      "--weights", files["k4.weights"], "--seed", "3")
        assert res.returncode == 0
        res = run_cli(
            "btrpt", "--matroid", files["k4.graph"], "--weights", files["k4.weights"],
            "--seed", "3", "--tries", "5",
        )
        payload = json.loads(res.stdout)
        assert payload["points"] == [[6, 16], [8, 10]]

    def test_points_format(self, files):
        res = run_cli(
            "pareto", "--matroid", files["u24.matroid"], "--weights", files["u24.weights"],
            "--format", "points",
        )
        lines = [l for l in res.stdout.splitlines() if l and not l.startswith("#")]
        assert all(len(line.split()) == 2 for line in lines)


class TestSingleSearch:
    """ls/ts reports: stop reason, pivot count from the transcript, the
    projection of the returned basis, and golden bytes for fixed seeds."""

    LS_GOLDEN = (
        '{"basis": [1, 4, 5], "params": {"objective": "sqdist", "start": [2, 5, 6]}, '
        '"pivots": 2, "point": [9, 12], "reason": "local minimum", "seed": 3, "value": "8"}\n'
    )
    TS_GOLDEN = (
        '{"basis": [2, 3, 4], "params": {"objective": "linear", "start": [3, 5, 6], '
        '"tabu_limit": 4}, "pivots": 6, "point": [6, 16], "reason": "tabu stop", '
        '"seed": 5, "value": "6"}\n'
    )

    def _check(self, files, tmp_path, golden, reason, *argv):
        import matropt as mp

        trace = tmp_path / "trace.jsonl"
        res = run_cli(
            *argv, "--matroid", files["k4.graph"], "--weights", files["k4.weights"],
            "--transcript", str(trace),
        )
        assert res.returncode == 0
        assert res.stdout == golden
        payload = json.loads(res.stdout)
        assert payload["reason"] == reason
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert payload["pivots"] == records[-1]["pivot"]
        M = mp.load_matroid(files["k4.graph"])
        W = mp.WeightMatrix(tuple(mp.load_weights(files["k4.weights"])))
        basis = tuple(e - 1 for e in payload["basis"])
        assert M.is_basis(basis)
        assert list(mp.project(W, basis)) == payload["point"]

    def test_ls_report(self, files, tmp_path):
        self._check(
            files, tmp_path, self.LS_GOLDEN, "local minimum",
            "ls", "--seed", "3", "--objective", "sqdist", "--target", "11,14",
        )

    def test_ts_report(self, files, tmp_path):
        self._check(
            files, tmp_path, self.TS_GOLDEN, "tabu stop",
            "ts", "--seed", "5", "--objective", "linear", "--coeff", "1,0",
            "--tabu-limit", "4",
        )


class TestExitCodes:
    def test_parse_error_is_two(self, tmp_path):
        bad = tmp_path / "bad.matroid"
        bad.write_text("uniform four two\n")
        res = run_cli("bases", "--matroid", str(bad))
        assert res.returncode == 2
        assert "error" in res.stderr

    def test_dimension_error_is_three(self, files, tmp_path):
        res = run_cli("projected-set", "--matroid", files["u24.matroid"],
                      "--weights", files["k4.weights"])
        assert res.returncode == 3

    def test_cap_error_is_four(self, tmp_path):
        big = tmp_path / "big.matroid"
        big.write_text("uniform 40 20\n")
        res = run_cli("bases", "--matroid", str(big))
        assert res.returncode == 4

    def test_lattice_count_csv(self, files):
        res = run_cli("lattice-count", "--matroid", files["u24.matroid"],
                      "--kmax", "3", "--format", "csv")
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "k,count"
        assert lines[1] == "0,1"
        assert lines[2] == "1,6"

    def test_output_roundtrip(self, files, tmp_path):
        out = tmp_path / "out.json"
        res = run_cli("ehrhart", "--matroid", files["k4.graph"], "--output", str(out))
        assert res.returncode == 0
        payload = json.loads(out.read_text())
        assert payload["dimension"] == 5


class TestRoundTripValidation:
    """Emitted JSON re-parses and re-validates against module invariants."""

    def test_ehrhart_coefficients_revalidate(self, files):
        from matropt.io import parse_rational
        from matropt.oracles import evaluate_polynomial

        res = run_cli("ehrhart", "--matroid", files["k4.graph"])
        coeffs = [parse_rational(tok) for tok in json.loads(res.stdout)["coefficients"]]
        assert coeffs[0] == 1
        for k in range(3):
            val = evaluate_polynomial(coeffs, k)
            assert val.denominator == 1 and val >= 1

    def test_search_outputs_revalidate(self, files):
        import matropt as mp

        M = mp.load_matroid(files["k4.graph"])
        W = mp.WeightMatrix(tuple(mp.load_weights(files["k4.weights"])))
        exact = set(mp.exact_projected_set(M, W))
        res = run_cli(
            "btrpt", "--matroid", files["k4.graph"], "--weights", files["k4.weights"],
            "--seed", "3", "--tries", "5",
        )
        payload = json.loads(res.stdout)
        for basis in payload["bases"]:
            assert M.is_basis([e - 1 for e in basis])
        for point in payload["points"]:
            assert tuple(point) in exact

    def test_transcript_records_revalidate(self, files, tmp_path):
        import matropt as mp

        M = mp.load_matroid(files["k4.graph"])
        W = mp.WeightMatrix(tuple(mp.load_weights(files["k4.weights"])))
        trace = tmp_path / "trace.jsonl"
        run_cli(
            "ts", "--matroid", files["k4.graph"], "--weights", files["k4.weights"],
            "--seed", "4", "--objective", "sqdist", "--target", "9,12",
            "--transcript", str(trace),
        )
        for line in trace.read_text().splitlines():
            record = json.loads(line)
            basis = tuple(sorted(e - 1 for e in record["basis"]))
            assert M.is_basis(basis)
            assert list(mp.project(W, basis)) == record["point"]
