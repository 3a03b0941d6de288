import io
import json

import pytest

from gnnbulk import cli
from gnnbulk.cli import build_parser, config_from_args, main, run
from gnnbulk.graph_io import read_stats

from test_io import FIGURE_EDGES, write_edge_list


@pytest.fixture
def figure_path(tmp_path):
    path = tmp_path / "figure.txt"
    write_edge_list(path, FIGURE_EDGES)
    return path


def strip_durations(records):
    out = []
    for rec in records:
        rec = dict(rec)
        for key in ("t_sample", "t_fetch", "t_propagate"):
            rec.pop(key, None)
        out.append(rec)
    return out


class TestParser:
    def test_fanouts_parsing(self, figure_path):
        args = build_parser().parse_args(
            ["--graph", str(figure_path), "--layers", "2", "--fanouts", "3,2"]
        )
        cfg = config_from_args(args)
        assert cfg.fanouts == (3, 2)

    def test_bad_fanouts_exit_code(self, figure_path):
        rc = main(["--graph", str(figure_path), "--fanouts", "x"])
        assert rc == 1

    def test_missing_graph_flag(self):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args([])
        assert err.value.code == 2


class TestRuns:
    def test_sage_run_succeeds(self, figure_path, tmp_path):
        rc = main(
            [
                "--graph", str(figure_path), "--sampler", "sage",
                "--layers", "2", "--fanouts", "2,2", "--batch-size", "2",
                "--bulk-count", "2", "--procs", "2", "--seed", "1",
                "--stats", str(tmp_path / "s.jsonl"),
            ]
        )
        assert rc == 0
        records = read_stats(tmp_path / "s.jsonl")
        assert any(r["record"] == "epoch" for r in records)

    def test_ladies_partitioned_run(self, figure_path, tmp_path):
        rc = main(
            [
                "--graph", str(figure_path), "--sampler", "ladies",
                "--layers", "1", "--sample-num", "2", "--batch-size", "2",
                "--procs", "4", "--replication", "2", "--mode", "partitioned",
                "--stats", str(tmp_path / "s.jsonl"),
            ]
        )
        assert rc == 0
        epoch = next(
            r for r in read_stats(tmp_path / "s.jsonl") if r["record"] == "epoch"
        )
        assert epoch["predicted"] is not None

    def test_missing_file_exit_1(self, tmp_path, capsys):
        rc = main(["--graph", str(tmp_path / "nope.txt")])
        assert rc == 1

    def test_invalid_grid_exit_1(self, figure_path):
        assert main(["--graph", str(figure_path), "--procs", "4",
                     "--replication", "3"]) == 1

    def test_partitioned_grid_rejected_before_loading(self, figure_path, monkeypatch, capsys):
        # p=6, c=2: c*c does not divide p, so the staged multiply cannot tile
        # the grid; the config must fail before the graph is read
        def no_load(*args, **kwargs):
            raise AssertionError("graph was read")

        monkeypatch.setattr(cli, "load_graph", no_load)
        rc = main(["--graph", str(figure_path), "--procs", "6", "--replication", "2",
                   "--mode", "partitioned"])
        assert rc == 1
        assert "c*c" in capsys.readouterr().err

    def test_train_subset(self, figure_path, tmp_path):
        train = tmp_path / "train.txt"
        train.write_text("1\n5\n0\n")
        out = io.StringIO()
        args = build_parser().parse_args(
            ["--graph", str(figure_path), "--batch-size", "2",
             "--train-vertices", str(train)]
        )
        assert run(config_from_args(args), out=out) == 0
        assert "batches=2" in out.getvalue()

    def test_stats_deterministic_except_durations(self, figure_path, tmp_path):
        argv = [
            "--graph", str(figure_path), "--sampler", "sage", "--layers", "2",
            "--fanouts", "2,2", "--batch-size", "2", "--procs", "4",
            "--replication", "2", "--mode", "partitioned", "--epochs", "2",
            "--seed", "3",
        ]
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            assert main(argv + ["--stats", str(path)]) == 0
        a = strip_durations(read_stats(paths[0]))
        b = strip_durations(read_stats(paths[1]))
        # identical modulo the stats path recorded in the run header
        for rec in a + b:
            rec.pop("stats", None)
        assert json.dumps(a) == json.dumps(b)
