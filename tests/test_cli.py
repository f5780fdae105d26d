"""End-to-end command-line checks: formats, determinism, exit codes."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bridges_triangle_adjacency,
    cycle_adjacency,
    evaluate_polynomial,
    random_connected_graph,
    random_weight_matrix,
)
from matropt import cli

K4_GRAPH = "graph 4\n0 1 1 1\n1 0 1 1\n1 1 0 1\n1 1 1 0\n"
K33_GRAPH = "graph 6\n" + "".join(
    " ".join(str(int((i < 3) != (j < 3))) for j in range(6)) + "\n" for i in range(6))
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


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*argv, env=None):
    """Run the CLI of this checkout in a child process: its `src` goes first
    on the child's PYTHONPATH, whatever the parent's is."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "matropt.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, **(env or {}), "PYTHONPATH": path},
    )


class TestCoreCommands:
    def test_ehrhart_k4(self, files):
        res = run_cli("ehrhart", "--matroid", files["k4.graph"])
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["coefficients"] == ["1", "107/30", "21/4", "49/12", "7/4", "7/20"]

    def test_ehrhart_star_is_quick(self, tmp_path):
        # The 9-leaf star has 9! automorphisms and one basis, so listing
        # the group would cost seconds for nothing.  The search finds 8
        # generators, one per level, within v(v - 1)/2, and its polytope
        # is a point.
        from matropt import automorphism_generators, enumerate_bases, graphic_matroid

        v = 10
        adj = [[int((i == 0) != (j == 0)) for j in range(v)] for i in range(v)]
        M = graphic_matroid(adj)
        assert len(automorphism_generators(M.n, enumerate_bases(M))) <= v * (v - 1) // 2
        path = tmp_path / "star.graph"
        path.write_text(f"graph {v}\n" + "".join(" ".join(map(str, row)) + "\n" for row in adj))
        start = time.perf_counter()
        res = run_cli("ehrhart", "--matroid", str(path))
        elapsed = time.perf_counter() - start
        assert res.returncode == 0
        assert json.loads(res.stdout)["coefficients"] == ["1"]
        assert elapsed < 10, f"the star took {elapsed:.1f}s"

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
        # CI runs the same command through the installed entry point against
        # the same golden.
        quad = tmp_path / "sq.points"
        quad.write_text("vector 4 4\n1 1 0 0\n1 0 1 0\n0 1 0 1\n0 0 1 1\n")
        res = run_cli("classify-2face", "--matroid", files["u24.matroid"],
                      "--points", str(quad))
        assert json.loads(res.stdout)["classification"] == "not-a-2-face"
        golden = Path(__file__).parent / "golden" / "classify_2face_u24.json"
        assert res.stdout == golden.read_text()


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

    def test_pt_empty_targets_run_none(self, tmp_path, capsys):
        # An empty --targets is an empty list, as ';' is; only an omitted
        # one means the bounding box (49 points here).
        matroid, weights = tmp_path / "u25.matroid", tmp_path / "u25.weights"
        matroid.write_text("uniform 5 2\n")
        weights.write_text("weights 2 5\n1 2 3 4 5\n5 1 4 2 3\n")
        argv = ["pt", "--matroid", str(matroid), "--weights", str(weights), "--seed", "1"]
        outs = []
        for extra in (["--targets", ""], ["--targets", ";"], []):
            assert cli.main(argv + extra) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["params"]["targets"] == 0
        assert json.loads(outs[2])["params"]["targets"] == 49

    def test_pt_counts_distinct_targets(self, files, capsys):
        # A repeated target is searched once, and counted once.
        argv = ["pt", "--matroid", files["k4.graph"], "--weights", files["k4.weights"],
                "--seed", "2", "--tries", "5", "--targets"]
        outs = []
        for targets in ("9,12;9,12;9,12", "9,12"):
            assert cli.main(argv + [targets]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["params"]["targets"] == 1

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
        lines = trace.read_text().splitlines(keepends=True)
        records = [json.loads(line) for line in lines]
        # Each record is written in the one JSON format of every report.
        assert lines == [cli._encode(record) + "\n" for record in records]
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


class TestStochasticGolden:
    """stdout bytes of the seeded multi-start commands on K4, recorded before
    the search loop moved to integer objectives and a projection memo."""

    PT_GOLDEN = (
        '{"bases": [[1, 2, 3], [1, 2, 5], [1, 3, 4], [1, 3, 6], [1, 4, 5], [1, 4, 6], '
        '[1, 5, 6], [2, 3, 4], [2, 3, 5], [2, 4, 5], [2, 4, 6], [2, 5, 6], [3, 4, 5], '
        '[3, 4, 6], [3, 5, 6]], "params": {"searcher": "ts", "tabu_limit": 1, '
        '"targets": 182, "tries": 1, "workers": 1}, "points": [[6, 16], [7, 17], [8, 10], '
        '[8, 11], [9, 11], [9, 12], [10, 10], [10, 11], [11, 23], [13, 18], [14, 17], '
        '[15, 17], [16, 11], [17, 12], [18, 11]], "seed": 2}\n'
    )
    BTRPT_GOLDEN = (
        '{"bases": [[1, 2, 3], [2, 3, 4]], "params": {"searcher": "ts", "tabu_limit": 10, '
        '"tries": 5}, "points": [[6, 16], [8, 10]], "seed": 3}\n'
    )
    PB_GOLDEN = (
        '{"bases": [[1, 2, 3], [2, 3, 4], [2, 3, 5], [2, 4, 6], [2, 5, 6], [3, 5, 6]], '
        '"params": {"start": [3, 5, 6]}, "points": [[6, 16], [8, 10], [10, 10], [11, 23], '
        '[15, 17], [18, 11]], "seed": 3}\n'
    )
    DFBFS_GOLDEN = (
        '{"params": {"bfs_depth": 1, "boundary_retry_limit": 100, "num_searches": 3, '
        '"random_retry_limit": 1000}, "points": [[6, 16], [7, 17], [8, 10], [8, 11], '
        '[9, 11], [10, 10], [10, 11], [11, 23], [13, 17], [13, 18], [14, 17], [15, 17], '
        '[16, 11], [17, 12], [18, 11]], "seed": 7, "witnesses": [[[6, 16], [2, 3, 4]], '
        '[[7, 17], [2, 4, 5]], [[8, 10], [1, 2, 3]], [[8, 11], [1, 3, 4]], '
        '[[9, 11], [1, 2, 5]], [[10, 10], [2, 3, 5]], [[10, 11], [3, 4, 5]], '
        '[[11, 23], [2, 4, 6]], [[13, 17], [1, 2, 6]], [[13, 18], [1, 4, 6]], '
        '[[14, 17], [3, 4, 6]], [[15, 17], [2, 5, 6]], [[16, 11], [1, 3, 6]], '
        '[[17, 12], [1, 5, 6]], [[18, 11], [3, 5, 6]]]}\n'
    )

    @pytest.mark.parametrize("golden, argv", [
        ("PT_GOLDEN", ("pt", "--seed", "2", "--tries", "1", "--searcher", "ts",
                       "--tabu-limit", "1")),
        ("BTRPT_GOLDEN", ("btrpt", "--seed", "3", "--tries", "5")),
        ("PB_GOLDEN", ("pb", "--seed", "3")),
        ("DFBFS_GOLDEN", ("dfbfs", "--seed", "7", "--searches", "3", "--depth", "1")),
    ])
    def test_k4_bytes(self, files, golden, argv):
        res = run_cli(*argv, "--matroid", files["k4.graph"], "--weights", files["k4.weights"])
        assert res.returncode == 0
        assert res.stdout == getattr(self, golden)

    def test_pt_workers_agree_on_random_graphs(self, tmp_path):
        """`pt --workers 2` finds the same bases as `--workers 1` on the first
        three graphs of the criterion-9 generator."""
        import matropt as mp

        rng = random.Random(20260810)
        for trial in range(3):
            adj = random_connected_graph(rng, max_nodes=9, extra_hi=3)
            M = mp.graphic_matroid(adj)
            rows = random_weight_matrix(rng, 2, M.n, 0, 20)
            W = mp.WeightMatrix(rows)
            graph = tmp_path / f"g{trial}.graph"
            graph.write_text(f"graph {len(adj)}\n" + "".join(
                " ".join(map(str, row)) + "\n" for row in adj))
            weights = tmp_path / f"g{trial}.weights"
            weights.write_text(f"weights 2 {M.n}\n" + "".join(
                " ".join(map(str, row)) + "\n" for row in rows))
            lo, _ = mp.bounding_box(M, W)
            targets = sorted(mp.exact_projected_set(M, W))[:6] + [tuple(x - 1 for x in lo)]
            argv = (
                "pt", "--matroid", str(graph), "--weights", str(weights), "--seed", str(trial),
                "--targets", ";".join(f"{x},{y}" for x, y in targets), "--tries", "3",
                "--searcher", "ts",
            )
            outs = []
            for workers in ("1", "2"):
                res = run_cli(*argv, "--workers", workers)
                assert res.returncode == 0, res.stderr
                payload = json.loads(res.stdout)
                assert payload["params"].pop("workers") == int(workers)
                outs.append(payload)
            assert outs[0] == outs[1]
            assert outs[0]["points"]


class TestCheckUnimodularGolden:
    """check-unimodular stdout (insertion order, cell order, determinants)
    on three matroids, recorded before placing moved to integer kernels."""

    GOLDEN = Path(__file__).parent / "golden"
    INPUTS = {
        "k4": K4_GRAPH,
        "k23": "graph 5\n0 0 1 1 1\n0 0 1 1 1\n1 1 0 0 0\n1 1 0 0 0\n1 1 0 0 0\n",
        "u36": "uniform 6 3\n",
    }

    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_bytes(self, tmp_path, name):
        f = tmp_path / f"{name}.matroid"
        f.write_text(self.INPUTS[name])
        res = run_cli("check-unimodular", "--matroid", str(f))
        assert res.returncode == 0, res.stderr
        assert res.stdout == (self.GOLDEN / f"check_unimodular_{name}.json").read_text()

    @pytest.mark.parametrize("name", sorted(INPUTS) + ["k33", "square-doubled"])
    def test_streams_the_bytes_of_json_dumps(self, tmp_path, capsys, monkeypatch, name):
        # The report is written cell by cell, yet its bytes are those of
        # json.dumps over the whole payload, on stdout and under --output.
        # Doubled volumes on a direct sum (no n x n determinant to check
        # them against) reach the entries without "det" and a false verdict.
        inputs = {**self.INPUTS, "k33": K33_GRAPH,
                  "square-doubled": "vector 2 4\n1 1 0 0\n0 0 1 1\n"}
        if name == "square-doubled":
            placing = cli.placing_triangulation

            def doubled(points):
                cells, volumes = placing(points)
                return cells, [2 * v for v in volumes]

            monkeypatch.setattr(cli, "placing_triangulation", doubled)
        f = tmp_path / "in.matroid"
        f.write_text(inputs[name])
        assert cli.main(["check-unimodular", "--matroid", str(f)]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert out == json.dumps(payload, sort_keys=True, separators=(", ", ": ")) + "\n"
        assert payload["all_unimodular"] is (name != "square-doubled")
        report = tmp_path / "report.json"
        assert cli.main(["check-unimodular", "--matroid", str(f), "--output", str(report)]) == 0
        assert capsys.readouterr().out == ""
        assert report.read_text() == out

    @pytest.mark.slow
    def test_k5_all_unimodular(self, tmp_path, capsys):
        # 45,444 cells, the normalized volume 9! * 541 / 4320 of P(K5),
        # each of lattice det 1 and |det| 4 = rank: about 17 s.
        f = tmp_path / "k5.graph"
        f.write_text("graph 5\n" + "".join(
            " ".join(str(int(i != j)) for j in range(5)) + "\n" for i in range(5)))
        assert cli.main(["check-unimodular", "--matroid", str(f)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["cells"]) == 45444 == 362880 * 541 // 4320
        assert all(cell["lattice_det"] == 1 and cell["det"] == 4 for cell in payload["cells"])
        assert payload["all_unimodular"] is True


class TestUniformGolden:
    """hstar-uniform and ehrhart-uniform stdout, recorded before h* moved
    from the inclusion-exclusion triple sum to the closed-form counts."""

    GOLDEN = Path(__file__).parent / "golden"
    CASES = {
        "hstar_uniform_n40_r1": ("hstar-uniform", "40", "1"),
        "hstar_uniform_n40_r20": ("hstar-uniform", "40", "20"),
        "hstar_uniform_n40_r39": ("hstar-uniform", "40", "39"),
        "ehrhart_uniform_n40_r20": ("ehrhart-uniform", "40", "20"),
        "ehrhart_uniform_n12_r5": ("ehrhart-uniform", "12", "5"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bytes(self, name):
        cmd, n, r = self.CASES[name]
        res = run_cli(cmd, "--n", n, "--r", r)
        assert res.returncode == 0, res.stderr
        assert res.stdout == (self.GOLDEN / f"{name}.json").read_text()


class TestEhrhartGolden:
    """ehrhart stdout, recorded before the vertex cones moved from placing
    to spanning-tree cells.  Besides K4, the 8-edge wheel and K3,3, the
    inputs give exchange graphs with isolated vertices: cones without
    generators (U(0,3), U(3,3)), a loop (a zero column) and a coloop (a
    bridge)."""

    GOLDEN = Path(__file__).parent / "golden"
    INPUTS = {
        "k4": K4_GRAPH,
        "wheel4": "graph 5\n0 1 1 1 1\n1 0 1 0 1\n1 1 0 1 0\n1 0 1 0 1\n1 1 0 1 0\n",
        "k33": "graph 6\n" + "0 0 0 1 1 1\n" * 3 + "1 1 1 0 0 0\n" * 3,
        "u30": "uniform 3 0\n",
        "u33": "uniform 3 3\n",
        "loop": "vector 2 4\n1 0 1 0\n0 1 1 0\n",
        "bridge": "graph 4\n0 1 1 0\n1 0 1 0\n1 1 0 1\n0 0 1 0\n",
    }

    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_bytes(self, tmp_path, name):
        f = tmp_path / f"{name}.matroid"
        f.write_text(self.INPUTS[name])
        res = run_cli("ehrhart", "--matroid", str(f))
        assert res.returncode == 0, res.stderr
        assert res.stdout == (self.GOLDEN / f"ehrhart_{name}.json").read_text()


class TestWeightsGolden:
    """greedy, projected-set and pareto stdout in each format they offer,
    recorded before `main` took over loading each subcommand's inputs."""

    GOLDEN = Path(__file__).parent / "golden"
    CASES = {
        "greedy_k4.json": ("greedy", "k4"),
        "greedy_k4_row2.json": ("greedy", "k4", "--row", "2"),
        "projected_set_u24.json": ("projected-set", "u24"),
        "projected_set_u24.csv": ("projected-set", "u24", "--format", "csv"),
        "projected_set_u24.points": ("projected-set", "u24", "--format", "points"),
        "pareto_k4.json": ("pareto", "k4"),
        "pareto_k4.points": ("pareto", "k4", "--format", "points"),
    }
    MATROIDS = {"k4": "k4.graph", "u24": "u24.matroid"}

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bytes(self, files, name):
        cmd, fixture, *flags = self.CASES[name]
        res = run_cli(cmd, "--matroid", files[self.MATROIDS[fixture]],
                      "--weights", files[f"{fixture}.weights"], *flags)
        assert res.returncode == 0, res.stderr
        assert res.stdout == (self.GOLDEN / name).read_text()


class TestInProcessCalls:
    def test_in_process_calls_match_fresh_processes(self, files):
        # Repeated main() calls in one process, as the benchmark makes
        # them: a usage error must leave nothing behind that changes a
        # later call.
        calls = [
            ["ehrhart"],  # --matroid missing: usage error, exit 2
            ["ehrhart", "--matroid", files["k4.graph"]],
            ["hstar-uniform", "--n", "6", "--r", "3"],
        ]
        for argv in calls:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
            fresh = run_cli(*argv)
            assert (out.getvalue(), code) == (fresh.stdout, fresh.returncode), argv


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

    def _one_error_line(self, res, code):
        assert res.returncode == code
        assert "Traceback" not in res.stderr
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_undeclared_rows_are_two(self, tmp_path):
        # A negative count, in a uniform file as in any other, a row past
        # the count and a line after 'uniform n r' each exit 2 naming the
        # line, with nothing on stdout.
        u3 = tmp_path / "u3.matroid"
        u3.write_text("uniform 3 2\n")
        bad = tmp_path / "bad"
        for header, line, argv in (
            ("vector -1 3", 1, ["bases", "--matroid", str(bad)]),
            ("uniform -1 2", 1, ["bases", "--matroid", str(bad)]),
            ("vector 1 3", 3, ["bases", "--matroid", str(bad)]),
            ("uniform 3 2", 2, ["bases", "--matroid", str(bad)]),
            ("weights -1 3", 1, ["greedy", "--matroid", str(u3), "--weights", str(bad)]),
        ):
            bad.write_text(f"{header}\n1 0 1\n0 1 1\n")
            res = run_cli(*argv)
            self._one_error_line(res, 2)
            assert f"(line {line})" in res.stderr
            assert ("size -1 is negative" in res.stderr) == ("-1" in header)
            assert res.stdout == ""

    @pytest.mark.parametrize("argv, extra, code, wording", [
        (["pt", "--matroid", "k4.graph", "--weights", "k4.weights", "--seed", "1",
          "--targets", "1,2,3"], {}, 3, "target dimension mismatch"),
        (["pt", "--matroid", "k4.graph", "--weights", "k4.weights", "--seed", "1",
          "--targets", "1,x"], {}, 2, "bad point '1,x'"),
        (["btrpt", "--matroid", "k4.graph", "--weights", "w3.weights", "--seed", "1"],
         {"w3.weights": b"weights 3 6\n3 1 4 1 5 9\n2 7 1 8 2 8\n1 1 1 1 1 1\n"}, 3,
         "projected_boundary is implemented for d = 2 only"),
        (["greedy", "--matroid", "k4.graph", "--weights", "w0.weights"],
         {"w0.weights": b"weights 0 6\n"}, 3, "weight matrix must be nonempty"),
        (["bases", "--matroid", "g0.graph"], {"g0.graph": b"graph 0\n"}, 3,
         "graph has no edges"),
        (["bases", "--matroid", "g1.graph"], {"g1.graph": b"graph 1\n0\n"}, 3,
         "graph has no edges"),
        (["bases", "--matroid", "v0.matroid"], {"v0.matroid": b"vector 0 3\n"}, 3,
         "vector matroid needs a nonempty matrix"),
        (["bases", "--matroid", "latin1.matroid"],
         {"latin1.matroid": b"vector 2 3\n\xff 0 1\n0 1 1\n"}, 2, "is not UTF-8 text"),
        (["classify-2face", "--matroid", "u24.matroid", "--points", "three.points"],
         {"three.points": b"vector 3 4\n1 1 0 0\n1 0 1 0\n0 1 0 1\n"}, 3,
         "the four corners"),
        (["classify-2face", "--matroid", "u24.matroid", "--points", "far.points"],
         {"far.points": b"vector 4 4\n1 1 0 0\n0 0 1 1\n1 1 0 0\n0 0 1 1\n"}, 3,
         "single exchange"),
    ], ids=["pt-width", "pt-bad-point", "btrpt-three-rows", "weights-no-rows", "graph-0",
            "graph-1-no-edges", "vector-0-rows", "matroid-not-utf8", "corners-three-rows",
            "corners-not-exchanges"])
    def test_refusal(self, files, tmp_path, capsys, argv, extra, code, wording):
        # Each input exits with its code, one error line and nothing on stdout.
        for name, data in extra.items():
            (tmp_path / name).write_bytes(data)
            files = {**files, name: str(tmp_path / name)}
        assert cli.main([files.get(arg, arg) for arg in argv]) == code
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and wording in lines[0]

    def test_weights_is_required(self, files, capsys):
        # The usage line shows --weights without brackets, and a missing
        # --weights is argparse's usage error, exit 2.
        with pytest.raises(SystemExit) as exc:
            cli.main(["greedy", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--weights WEIGHTS" in out and "[--weights" not in out
        res = run_cli("greedy", "--matroid", files["k4.graph"])
        assert res.returncode == 2
        assert res.stdout == ""
        assert "the following arguments are required: --weights" in res.stderr

    def test_enumerate_trees_needs_a_graph(self, files, tmp_path):
        vector = tmp_path / "k3.vector"
        vector.write_text("vector 2 3\n1 0 1\n0 1 1\n")
        for path in (files["u24.matroid"], str(vector)):
            res = run_cli("enumerate-trees", "--matroid", path)
            self._one_error_line(res, 3)
            assert res.stdout == ""

    def test_fractional_2face_corner_is_three(self, files, tmp_path):
        quad = tmp_path / "frac.points"
        quad.write_text("vector 4 4\n3/2 1 0 0\n0 1 1 0\n1 0 0 1\n0 0 1 1\n")
        res = run_cli("classify-2face", "--matroid", files["u24.matroid"],
                      "--points", str(quad))
        self._one_error_line(res, 3)
        assert res.stdout == ""

    def test_check_unimodular_det_relation_is_five(self, files, monkeypatch, capsys):
        # On a full-size cell |det| must be rank times the lattice
        # determinant; a wrong lattice determinant is caught, not printed.
        placing = cli.placing_triangulation

        def doubled(points):
            cells, volumes = placing(points)
            return cells, [2 * v for v in volumes]

        monkeypatch.setattr(cli, "placing_triangulation", doubled)
        assert cli.main(["check-unimodular", "--matroid", files["u24.matroid"]]) == 5
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        # Every cell is checked before the report is opened for writing.
        report = Path(files["u24.matroid"]).parent / "report.json"
        argv = ["check-unimodular", "--matroid", files["u24.matroid"], "--output", str(report)]
        assert cli.main(argv) == 5
        assert not report.exists()

    def test_ls_has_no_tabu_limit(self, files):
        # ls never read --tabu-limit, so it is not offered: a usage error.
        res = run_cli("ls", "--matroid", files["k4.graph"], "--weights", files["k4.weights"],
                      "--seed", "1", "--target", "9,12", "--tabu-limit", "5")
        assert res.returncode == 2
        assert res.stdout == ""

    @pytest.mark.parametrize("flag, value", [
        ("--searches", "0"), ("--boundary-retries", "0"), ("--random-retries", "0"),
        ("--depth", "-1"),
    ])
    def test_dfbfs_knob_below_range_is_three(self, files, capsys, flag, value):
        argv = ["dfbfs", "--matroid", files["k4.graph"], "--weights", files["k4.weights"],
                "--seed", "1", flag, value]
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_dfbfs_knobs_at_their_least(self, files, capsys):
        base = ["dfbfs", "--matroid", files["k4.graph"], "--weights", files["k4.weights"],
                "--seed", "1"]
        echoed = {"--depth": "bfs_depth", "--searches": "num_searches",
                  "--boundary-retries": "boundary_retry_limit",
                  "--random-retries": "random_retry_limit"}
        least = ["--depth", "1", "--searches", "1", "--boundary-retries", "1",
                 "--random-retries", "1"]
        for knobs in (["--depth", "0"], ["--searches", "1"], ["--boundary-retries", "1"],
                      ["--random-retries", "1"], least):
            assert cli.main(base + knobs) == 0, knobs
            out, err = capsys.readouterr()
            assert err == ""
            payload = json.loads(out)
            assert payload["points"] and len(payload["witnesses"]) == len(payload["points"])
            for flag, value in zip(knobs[::2], knobs[1::2]):
                assert payload["params"][echoed[flag]] == int(value)

    def test_non_basis_start_is_three(self, files):
        res = run_cli("ls", "--matroid", files["k4.graph"], "--weights", files["k4.weights"],
                      "--seed", "1", "--start", "1,2,4", "--target", "9,9")
        self._one_error_line(res, 3)

    def test_repeated_basis_element_in_adjacency_is_three(self, files):
        # 1,2,3 is a basis of K4; naming 2 twice must not pass as one.
        res = run_cli("adjacency", "--matroid", files["k4.graph"], "--basis", "1,2,2,3")
        self._one_error_line(res, 3)
        assert res.stdout == ""

    def test_repeated_start_element_is_three(self, files):
        res = run_cli("ls", "--matroid", files["k4.graph"], "--weights", files["k4.weights"],
                      "--seed", "1", "--start", "1,2,2,3", "--target", "0,0")
        self._one_error_line(res, 3)
        assert res.stdout == ""

    def test_missing_matroid_file_is_two(self, files, tmp_path):
        res = run_cli("ls", "--matroid", str(tmp_path / "absent.graph"),
                      "--weights", files["k4.weights"], "--seed", "1")
        self._one_error_line(res, 2)

    def test_missing_weights_file_is_two(self, files, tmp_path):
        res = run_cli("ls", "--matroid", files["k4.graph"],
                      "--weights", str(tmp_path / "absent.weights"), "--seed", "1")
        self._one_error_line(res, 2)

    def test_zero_tries_is_three(self, files):
        res = run_cli("pt", "--matroid", files["k4.graph"], "--weights", files["k4.weights"],
                      "--seed", "1", "--tries", "0")
        self._one_error_line(res, 3)

    def test_cap_error_is_four(self, tmp_path):
        big = tmp_path / "big.matroid"
        big.write_text("uniform 40 20\n")
        res = run_cli("bases", "--matroid", str(big))
        assert res.returncode == 4

    def test_bases_cap_boundary(self, files):
        # U(4,2) has C(4,2) = 6 candidate subsets.
        res = run_cli("bases", "--matroid", files["u24.matroid"], env={"MATROPT_BASES_CAP": "6"})
        assert res.returncode == 0
        assert json.loads(res.stdout)["count"] == 6
        res = run_cli("bases", "--matroid", files["u24.matroid"], env={"MATROPT_BASES_CAP": "5"})
        self._one_error_line(res, 4)

    def test_enumerate_trees_cap_boundary(self, files, monkeypatch, capsys):
        # K4 has 16 spanning trees, counted before any is listed.
        argv = ("enumerate-trees", "--matroid", files["k4.graph"])
        res = run_cli(*argv, env={"MATROPT_BASES_CAP": "16"})
        assert res.returncode == 0
        assert res.stdout == (Path(__file__).parent / "golden/enumerate_trees_k4.json").read_text()
        res = run_cli(*argv, env={"MATROPT_BASES_CAP": "15"})
        self._one_error_line(res, 4)
        assert res.stdout == ""

        def refuse(*args, **kwargs):
            raise AssertionError("a tree was listed above the cap")

        monkeypatch.setattr(cli, "spanning_trees", refuse)
        monkeypatch.setenv("MATROPT_BASES_CAP", "15")
        assert cli.main(list(argv)) == 4
        assert capsys.readouterr().out == ""

    def test_non_integer_cap_is_two(self, files):
        res = run_cli("bases", "--matroid", files["u24.matroid"],
                      env={"MATROPT_BASES_CAP": "abc"})
        self._one_error_line(res, 2)
        assert "MATROPT_BASES_CAP" in res.stderr

    @pytest.mark.parametrize("command", ["hstar-uniform", "ehrhart-uniform"])
    def test_closed_form_cap_boundary(self, command):
        # U(2,4) takes (4 + 1)^2 * (2 + 1) = 75 closed-form steps.
        argv = (command, "--n", "4", "--r", "2")
        res = run_cli(*argv, env={"MATROPT_BASES_CAP": "75"})
        assert res.returncode == 0
        assert res.stdout == run_cli(*argv).stdout != ""
        res = run_cli(*argv, env={"MATROPT_BASES_CAP": "74"})
        self._one_error_line(res, 4)
        assert res.stdout == ""

    def test_random_draws_cap_boundary(self, tmp_path):
        # ls without --start draws its start: seed 1 needs 4 draws on the
        # three bridges and a triangle, where half of the subsets are bases.
        graph, weights = tmp_path / "bt.graph", tmp_path / "bt.weights"
        graph.write_text("graph 6\n" + "".join(
            " ".join(map(str, row)) + "\n" for row in bridges_triangle_adjacency()))
        weights.write_text("weights 2 6\n1 2 3 4 5 6\n6 5 4 3 2 1\n")
        argv = ("ls", "--matroid", str(graph), "--weights", str(weights), "--seed", "1",
                "--target", "10,10")
        res = run_cli(*argv, env={"MATROPT_BASES_CAP": "4"})
        assert res.returncode == 0
        assert json.loads(res.stdout)["params"]["start"] == [1, 2, 3, 4, 5]
        res = run_cli(*argv, env={"MATROPT_BASES_CAP": "3"})
        self._one_error_line(res, 4)
        assert res.stdout == ""
        res = run_cli(*argv, env={"MATROPT_BASES_CAP": "abc"})
        self._one_error_line(res, 2)
        assert "MATROPT_BASES_CAP" in res.stderr
        assert res.stdout == ""

    def test_lattice_count_csv(self, files):
        res = run_cli("lattice-count", "--matroid", files["u24.matroid"],
                      "--kmax", "3", "--format", "csv")
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "k,count"
        assert lines[1] == "0,1"
        assert lines[2] == "1,6"

    def test_corner_file_errors_are_two(self, files, tmp_path):
        # `main` loads the corner file: a row past its count or a missing
        # file exits 2 with one error line and nothing on stdout.
        quad = tmp_path / "past.points"
        quad.write_text("vector 4 4\n1 1 0 0\n1 0 1 0\n0 1 0 1\n0 0 1 1\n1 1 0 0\n")
        for path, where in ((quad, "(line 6)"), (tmp_path / "absent.points", "cannot read")):
            res = run_cli("classify-2face", "--matroid", files["u24.matroid"],
                          "--points", str(path))
            self._one_error_line(res, 2)
            assert where in res.stderr
            assert res.stdout == ""

    def test_pt_bounding_box_cap_boundary(self, tmp_path):
        # Without --targets, pt counts the bounding box before listing it:
        # 7 x 7 = 49 points on U(2,5) with these weights.
        matroid, weights = tmp_path / "u25.matroid", tmp_path / "u25.weights"
        matroid.write_text("uniform 5 2\n")
        weights.write_text("weights 2 5\n1 2 3 4 5\n5 1 4 2 3\n")
        argv = ("pt", "--matroid", str(matroid), "--weights", str(weights), "--seed", "1")
        res = run_cli(*argv, env={"MATROPT_BASES_CAP": "49"})
        assert res.returncode == 0
        assert json.loads(res.stdout)["params"]["targets"] == 49
        res = run_cli(*argv, env={"MATROPT_BASES_CAP": "48"})
        self._one_error_line(res, 4)
        assert res.stdout == ""

    def test_btrpt_staircase_cap_boundary(self, files):
        # btrpt counts its staircase boxes less their corners before listing
        # them: 19 points on K4 with these weights and seed.
        argv = ("btrpt", "--matroid", files["k4.graph"], "--weights", files["k4.weights"],
                "--seed", "3", "--tries", "5")
        res = run_cli(*argv, env={"MATROPT_BASES_CAP": "19"})
        assert res.returncode == 0
        assert json.loads(res.stdout)["points"] == [[6, 16], [8, 10]]
        res = run_cli(*argv, env={"MATROPT_BASES_CAP": "18"})
        self._one_error_line(res, 4)
        assert res.stdout == ""

    def test_lattice_count_cap_boundary(self, files):
        # K4 at k = 2 forms 16 + 16 * 16 = 272 sums of bases; U(2,4) at
        # k = 3 builds composition tables of 4 + 7 + 10 + 13 = 34 entries.
        for name, k, work, count in (("k4.graph", 2, 272, 101), ("u24.matroid", 3, 34, 44)):
            argv = ("lattice-count", "--matroid", files[name], "--k", str(k))
            res = run_cli(*argv, env={"MATROPT_BASES_CAP": str(work)})
            assert res.returncode == 0
            assert json.loads(res.stdout) == {"k": k, "count": count}
            res = run_cli(*argv, env={"MATROPT_BASES_CAP": str(work - 1)})
            self._one_error_line(res, 4)
            assert res.stdout == ""
        res = run_cli("lattice-count", "--matroid", files["u24.matroid"], "--k", "100000000")
        self._one_error_line(res, 4)

    def test_lattice_count_beyond_sixteen_elements(self, tmp_path):
        # The 17-cycle: a simplex, L(k) = C(k + 16, 16).
        path = tmp_path / "c17.graph"
        path.write_text("graph 17\n" + "".join(
            " ".join(map(str, row)) + "\n" for row in cycle_adjacency(17)))
        res = run_cli("lattice-count", "--matroid", str(path), "--kmax", "3", "--format", "csv")
        assert res.returncode == 0
        assert res.stdout.split() == ["k,count", "0,1", "1,17", "2,153", "3,969"]

    def test_unsupported_format_is_two_before_any_work(self, files, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a rejected --format must stop before the work")

        for name in ("placing_triangulation", "enumerate_bases", "dilation_lattice_counts"):
            monkeypatch.setattr(cli, name, refuse)
        for argv in (["check-unimodular", "--format", "csv"], ["bases", "--format", "points"],
                     ["ehrhart", "--format", "points"]):
            with pytest.raises(SystemExit) as exc:
                cli.main([*argv, "--matroid", files["k4.graph"]])
            assert exc.value.code == 2
            assert "invalid choice" in capsys.readouterr().err
        assert cli.main(["lattice-count", "--matroid", files["k4.graph"], "--format", "csv"]) == 2
        assert capsys.readouterr().err == "error: csv format needs --kmax\n"

    def test_negative_kmax_is_three(self, files):
        res = run_cli("lattice-count", "--matroid", files["u24.matroid"], "--kmax", "-1")
        self._one_error_line(res, 3)
        assert res.stdout == ""

    def test_negative_k_is_three(self, files):
        for name in ("k4.graph", "u24.matroid"):
            res = run_cli("lattice-count", "--matroid", files[name], "--k", "-1")
            self._one_error_line(res, 3)
            assert res.stdout == ""

    def test_k_and_kmax_are_exclusive(self, files):
        # Both flags exit 2 with nothing on stdout, also with "--k 1", the
        # value --k takes when omitted.
        for flags in (("--k", "2", "--kmax", "3"), ("--kmax", "3", "--k", "1"),
                      ("--k", "1", "--kmax", "3", "--format", "csv")):
            res = run_cli("lattice-count", "--matroid", files["k4.graph"], *flags)
            assert res.returncode == 2
            assert res.stdout == ""
            assert "not allowed with argument" in res.stderr
        res = run_cli("lattice-count", "--matroid", files["k4.graph"])
        assert res.returncode == 0
        assert json.loads(res.stdout) == {"k": 1, "count": 16}

    def test_lattice_count_kmax_cap_boundary(self, files):
        # The --kmax 2 table sweeps the same steps as --k 2: 16 + 16 * 16 =
        # 272 sums of bases on K4.
        argv = ("lattice-count", "--matroid", files["k4.graph"], "--kmax", "2")
        res = run_cli(*argv, env={"MATROPT_BASES_CAP": "272"})
        assert res.returncode == 0
        assert json.loads(res.stdout) == {"counts": [[0, 1], [1, 16], [2, 101]]}
        res = run_cli(*argv, env={"MATROPT_BASES_CAP": "271"})
        self._one_error_line(res, 4)
        assert res.stdout == ""

    def test_lattice_count_table_enumerates_once(self, tmp_path, monkeypatch, capsys):
        # K3,3 at k <= 5: the whole table, in JSON and in CSV, enumerates
        # the bases once, and each row equals the --k count for its k.
        from matropt import oracles

        path = tmp_path / "k33.graph"
        path.write_text("graph 6\n" + "".join(
            " ".join(str(int((i < 3) != (j < 3))) for j in range(6)) + "\n" for i in range(6)))
        calls, enumerate_bases = [], oracles.enumerate_bases

        def counted(*args, **kwargs):
            calls.append(args)
            return enumerate_bases(*args, **kwargs)

        monkeypatch.setattr(oracles, "enumerate_bases", counted)
        argv = ["lattice-count", "--matroid", str(path)]
        singles = []
        for k in range(6):
            assert cli.main([*argv, "--k", str(k)]) == 0
            payload = json.loads(capsys.readouterr().out)
            singles.append([payload["k"], payload["count"]])
        assert singles == [[0, 1], [1, 81], [2, 1620], [3, 14985], [4, 86715], [5, 368091]]
        for fmt in ("json", "csv"):
            calls.clear()
            assert cli.main([*argv, "--kmax", "5", "--format", fmt]) == 0
            out = capsys.readouterr().out
            assert len(calls) == 1, fmt
            if fmt == "json":
                assert json.loads(out) == {"counts": singles}
            else:
                assert out.splitlines() == ["k,count"] + [f"{k},{c}" for k, c in singles]

    def test_unwritable_output_is_two(self, files, tmp_path):
        res = run_cli("bases", "--matroid", files["k4.graph"],
                      "--output", str(tmp_path / "absent" / "x.json"))
        self._one_error_line(res, 2)

    def test_unwritable_transcript_is_two(self, files, tmp_path):
        res = run_cli("ls", "--matroid", files["k4.graph"], "--weights", files["k4.weights"],
                      "--seed", "1", "--target", "9,12",
                      "--transcript", str(tmp_path / "absent" / "t.jsonl"))
        self._one_error_line(res, 2)
        assert res.stdout == ""

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


class TestCliFuzz:
    """`cli.main` in-process on mutated input files and random flags drawn
    from each subcommand's own parser: every run ends with a documented exit
    code and at most one `error:` line, and no exception escapes."""

    MATROIDS = (K4_GRAPH, U24, "vector 2 5\n1 0 1 -1 2\n1 1 0 1 2\n")
    WEIGHTS = (WEIGHTS, WEIGHTS_U24, "weights 1 5\n1 2 3 4 5\n")
    POINTS = ("vector 4 4\n1 1 0 0\n1 0 1 0\n0 1 0 1\n0 0 1 1\n",)
    TOKENS = ("0", "1", "2", "3", "-1", "1/2", "2/0", "x", "", "1 1", "graph", "vector")
    STRINGS = ("1,2,3", "1,2", "1,5,6", "0", "9,12", "1,1", "1/2,3", "a", "", "9,12;1,1")
    FILE_FLAGS = {"matroid": MATROIDS, "weights": WEIGHTS, "points": POINTS}

    def _mutate(self, draw, text):
        lines = [line.split() for line in text.splitlines()]
        for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
            i = draw(st.integers(0, len(lines) - 1))
            op = draw(st.sampled_from(("token", "drop", "copy")))
            if op == "token" and lines[i]:
                j = draw(st.integers(0, len(lines[i]) - 1))
                lines[i][j] = draw(st.sampled_from(self.TOKENS))
            elif op == "drop" and len(lines) > 1:
                del lines[i]
            elif op == "copy":
                lines.insert(i, list(lines[i]))
        return "\n".join(" ".join(line) for line in lines) + "\n"

    def _value(self, draw, action, directory, tag):
        dest = action.dest
        if dest in self.FILE_FLAGS:
            path = directory / f"{tag}.{dest}"
            path.write_text(self._mutate(draw, draw(st.sampled_from(self.FILE_FLAGS[dest]))))
            return str(path if draw(st.integers(0, 9)) < 9 else directory / "absent")
        if dest in ("output", "transcript"):
            return str(directory / draw(st.sampled_from((f"{tag}.out", f"absent/{tag}.out"))))
        if dest == "workers":
            return str(draw(st.sampled_from((1, 2))))
        if action.choices:
            return draw(st.sampled_from(list(action.choices)))
        if action.type is int:
            return str(draw(st.integers(-2, 4)))
        return draw(st.sampled_from(self.STRINGS))

    @given(data=st.data())
    @settings(max_examples=500, deadline=None)
    def test_exit_codes_and_one_error_line(self, tmp_path_factory, data):
        directory = tmp_path_factory.getbasetemp() / "fuzz"
        directory.mkdir(exist_ok=True)
        subparsers = next(a for a in cli.build_parser()._actions if a.choices)
        name = data.draw(st.sampled_from(sorted(subparsers.choices)))
        argv = [name]
        for k, action in enumerate(subparsers.choices[name]._actions):
            if not action.option_strings or action.dest == "help":
                continue
            wanted = action.required or action.dest in self.FILE_FLAGS
            if data.draw(st.integers(0, 9)) < (9 if wanted else 4):
                argv += [action.option_strings[0], self._value(data.draw, action, directory, k)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        assert code in (0, 2, 3, 4, 5), (argv, err.getvalue())
        assert sum("error:" in line for line in err.getvalue().splitlines()) <= 1, argv
