import csv
import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from latentforest import ModelParams, build_forest, covariance, edge, sample
from latentforest.cli import main

from conftest import run_python


def write_forest(path, f):
    path.write_text(f.to_json())
    return str(path)


def star3():
    return build_forest(
        [("1", False), ("2", False), ("3", False), ("h", True)],
        [("h", "1"), ("h", "2"), ("h", "3")],
    )


def quartet():
    return build_forest(
        [(str(i) , False) for i in range(1, 5)] + [("a", True), ("b", True)],
        [("a", "b"), ("a", "1"), ("a", "2"), ("b", "3"), ("b", "4")],
    )


def cherry12():
    return build_forest(
        [(str(i), False) for i in range(1, 5)] + [("a", True)],
        [("a", "1"), ("a", "2")],
    )


def write_csv(path, names, data):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(names)
    w.writerows(data.tolist())
    path.write_text(buf.getvalue())
    return str(path)


@pytest.fixture
def star_files(tmp_path):
    f = star3()
    params = ModelParams(
        leaf_var={"1": 1.0, "2": 1.0, "3": 1.0},
        edge_corr={
            edge("h", "1"): 0.8,
            edge("h", "2"): 0.7,
            edge("h", "3"): 0.6,
        },
    )
    data = sample(f, params, 500, seed=2)
    return (
        write_forest(tmp_path / "star.json", f),
        write_csv(tmp_path / "star.csv", f.observed, data),
    )


class TestRlct:
    def test_forest_pair_text(self, tmp_path, capsys):
        host = write_forest(tmp_path / "host.json", quartet())
        sub = write_forest(tmp_path / "sub.json", cherry12())
        assert main(["rlct", "forest", "--host", host, "--sub", sub]) == 0
        assert capsys.readouterr().out == "lambda=13/2 mult=1\n"

    def test_forest_pair_json(self, tmp_path, capsys):
        host = write_forest(tmp_path / "host.json", quartet())
        sub = write_forest(tmp_path / "sub.json", cherry12())
        assert (
            main(["rlct", "forest", "--host", host, "--sub", sub, "--json"])
            == 0
        )
        assert json.loads(capsys.readouterr().out) == {
            "lambda": "13/2",
            "mult": 1,
        }

    def test_mono_product_square(self, tmp_path, capsys):
        p = tmp_path / "m.json"
        p.write_text(
            json.dumps(
                {
                    "dim": 2,
                    "terms": [{"u": [1, 1], "c": 0.0}],
                    "domain": [[0.0, 1.0], [0.0, 1.0]],
                }
            )
        )
        assert main(["rlct", "mono", "--in", str(p)]) == 0
        assert capsys.readouterr().out == "lambda=1 mult=2\n"

    def test_mono_split_system(self, tmp_path, capsys):
        # support/complement split with one nonzero product constraint
        p = tmp_path / "m.json"
        p.write_text(
            json.dumps(
                {
                    "dim": 4,
                    "terms": [
                        {"u": [0, 1, 0, 0], "c": 0.5},
                        {"u": [1, 0, 0, 0], "c": 0.0},
                        {"u": [1, 0, 0, 0], "c": 0.0},
                        {"u": [1, 1, 0, 0], "c": 0.0},
                    ],
                    "domain": [[0.0, 1.0]] * 4,
                }
            )
        )
        assert main(["rlct", "mono", "--in", str(p)]) == 0
        assert capsys.readouterr().out == "lambda=2 mult=1\n"


class TestFit:
    def test_text_output(self, star_files, capsys):
        forest, data = star_files
        assert main(["fit", "--forest", forest, "--data", data]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("loglik=")
        assert float(lines[0].split("=", 1)[1]) < 0
        assert lines[1].startswith("iters=")
        assert "converged=" in lines[1]
        params = json.loads(lines[2])
        assert set(params) == {"leaf_var", "edge_corr"}
        assert set(params["leaf_var"]) == {"1", "2", "3"}

    def test_json_output(self, star_files, capsys):
        forest, data = star_files
        assert main(["fit", "--forest", forest, "--data", data, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"loglik", "iters", "converged", "params"}
        assert doc["converged"] is True

    def test_seed_flag_and_env_agree(self, star_files, capsys, monkeypatch):
        forest, data = star_files
        main(["fit", "--forest", forest, "--data", data, "--seed", "7"])
        by_flag = capsys.readouterr().out
        monkeypatch.setenv("LF_SEED", "7")
        main(["fit", "--forest", forest, "--data", data])
        by_env = capsys.readouterr().out
        assert by_flag == by_env
        # the flag wins over the environment
        monkeypatch.setenv("LF_SEED", "99")
        main(["fit", "--forest", forest, "--data", data, "--seed", "7"])
        assert capsys.readouterr().out == by_flag

    def test_repeat_runs_byte_identical(self, star_files, capsys):
        forest, data = star_files
        main(["fit", "--forest", forest, "--data", data])
        first = capsys.readouterr().out
        main(["fit", "--forest", forest, "--data", data])
        assert capsys.readouterr().out == first

    def test_trailing_blank_line_skipped(self, star_files, tmp_path, capsys):
        forest, data = star_files
        main(["fit", "--forest", forest, "--data", data])
        plain = capsys.readouterr().out
        blank = tmp_path / "blank.csv"
        blank.write_text(Path(data).read_text() + "\n")
        assert main(["fit", "--forest", forest, "--data", str(blank)]) == 0
        assert capsys.readouterr().out == plain


class TestSelect:
    def test_exhaustive_recovers_cherry(self, tmp_path, capsys):
        f = star3()
        params = ModelParams(
            leaf_var={"1": 1.0, "2": 1.0, "3": 1.0},
            edge_corr={
                edge("h", "1"): 0.8,
                edge("h", "2"): 0.7,
                edge("h", "3"): 0.0,
            },
        )
        tree = write_forest(tmp_path / "t.json", f)
        data = write_csv(
            tmp_path / "d.csv", f.observed, sample(f, params, 800, seed=4)
        )
        assert main(["select", "--tree", tree, "--data", data]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "selected=1 1 0"
        assert lines[1] == "criterion=sbic"
        assert lines[2] == "index,code,dim,loglik,bic,sbic"
        assert len(lines) == 3 + 5

    def test_json_schema(self, star_files, capsys):
        tree, data = star_files
        assert (
            main(
                ["select", "--tree", tree, "--data", data, "--criterion",
                 "bic", "--json"]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"selected", "criterion", "n", "table"}
        assert doc["criterion"] == "bic"
        assert doc["n"] == 500
        assert doc["selected"] in {r["code"] for r in doc["table"]}
        # rows of fitted classes say how their EM run ended
        for row in doc["table"]:
            assert isinstance(row["iters"], int) and row["iters"] >= 1
            assert row["converged"] is True

    def test_chain_mode(self, tmp_path, capsys):
        f = quartet()
        params = ModelParams(
            leaf_var={str(i): 1.0 for i in range(1, 5)},
            edge_corr={e: 0.7 for e in f.edges},
        )
        tree = write_forest(tmp_path / "t.json", f)
        data = write_csv(
            tmp_path / "d.csv", f.observed, sample(f, params, 600, seed=6)
        )
        assert (
            main(
                ["select", "--tree", tree, "--data", data, "--lattice",
                 "chain", "--json"]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        codes = [r["code"] for r in doc["table"]]
        assert doc["selected"] in codes
        assert codes[0] == "1 1 1 1 1"
        assert codes[-1] == "0 0 0 0 0"

    def test_chain_independent_of_hash_seed(self, tmp_path, five_tree):
        params = ModelParams(
            leaf_var={v: 1.0 for v in five_tree.observed},
            edge_corr={e: 0.6 for e in five_tree.edges},
        )
        tree = write_forest(tmp_path / "t.json", five_tree)
        data = write_csv(
            tmp_path / "d.csv",
            five_tree.observed,
            sample(five_tree, params, 125, seed=0),
        )
        argv = [
            "-m", "latentforest.cli", "select", "--tree", tree, "--data",
            data, "--lattice", "chain", "--restarts", "2", "--max-iter",
            "400", "--seed", "7",
        ]
        assert run_python(argv, 1) == run_python(argv, 2)


class TestSimulate:
    def config_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(
            json.dumps(
                {
                    "kind": "lattice5",
                    "n_values": [50],
                    "replicates": 2,
                    "master_seed": 3,
                }
            )
        )
        return str(p)

    def run(self, argv, capsys):
        code = main(argv)
        out = capsys.readouterr().out
        return code, out

    def test_csv_output_and_files(self, tmp_path, capsys):
        cfg = self.config_file(tmp_path)
        out_file = tmp_path / "counts.csv"
        edge_file = tmp_path / "covers.csv"
        code, out = self.run(
            ["simulate", "--config", cfg, "--restarts", "1", "--max-iter",
             "150", "--out", str(out_file), "--edges-out", str(edge_file)],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0] == "criterion,n,label,count"
        assert out_file.read_text() == out
        assert edge_file.read_text().splitlines()[0] == "sub,sup"
        counts = [int(r.rsplit(",", 1)[1]) for r in out.splitlines()[1:]]
        assert sum(counts) == 2 * 2  # replicates per criterion

    def test_threads_is_usage_error(self, tmp_path, capsys):
        cfg = self.config_file(tmp_path)
        assert main(["simulate", "--config", cfg, "--threads", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error:")
        assert "--threads" in captured.err

    def test_seed_precedence(self, tmp_path, capsys, monkeypatch):
        cfg = self.config_file(tmp_path)
        base = ["simulate", "--config", cfg, "--restarts", "1",
                "--max-iter", "150"]
        _, plain = self.run(base, capsys)  # master_seed 3 from the file
        _, flagged = self.run(base + ["--seed", "3"], capsys)
        assert flagged == plain
        monkeypatch.setenv("LF_SEED", "3")
        _, env = self.run(base, capsys)
        assert env == plain

    def test_json_document(self, tmp_path, capsys):
        cfg = self.config_file(tmp_path)
        code, out = self.run(
            ["simulate", "--config", cfg, "--restarts", "1", "--max-iter",
             "150", "--json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"config", "rows", "codes", "hasse"}
        assert doc["config"]["kind"] == "lattice5"
        assert len(doc["codes"]) == 34
        assert all(len(e) == 2 for e in doc["hasse"])


class TestLattice:
    def test_codes(self, tmp_path, capsys):
        tree = write_forest(tmp_path / "t.json", quartet())
        assert main(["lattice", "--tree", tree]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 13
        assert lines[0] == "0 0 0 0 0"
        assert all(len(c.split()) == 5 for c in lines)

    def test_json(self, tmp_path, capsys):
        tree = write_forest(tmp_path / "t.json", star3())
        assert main(["lattice", "--tree", tree, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 5
        assert len(doc["codes"]) == 5
        assert [0, 1] in doc["covers"] or [0, 2] in doc["covers"]


class TestErrors:
    def test_usage_error_is_2(self, capsys):
        assert main(["select", "--data", "x.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:")

    def test_usage_error_json(self, capsys):
        assert main(["select", "--json"]) == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"]["type"] == "UsageError"

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_computation_error_is_1(self, tmp_path, capsys):
        host = write_forest(tmp_path / "host.json", quartet())
        bad = write_forest(
            tmp_path / "bad.json",
            build_forest(
                [(str(i), False) for i in range(1, 5)] + [("z", True)],
                [("z", "1"), ("z", "2"), ("z", "3"), ("z", "4")],
            ),
        )
        assert main(["rlct", "forest", "--host", host, "--sub", bad]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_computation_error_json(self, tmp_path, capsys):
        host = write_forest(tmp_path / "host.json", quartet())
        bad = write_forest(
            tmp_path / "bad.json",
            build_forest(
                [(str(i), False) for i in range(1, 5)] + [("z", True)],
                [("z", "1"), ("z", "2"), ("z", "3"), ("z", "4")],
            ),
        )
        assert (
            main(["rlct", "forest", "--host", host, "--sub", bad, "--json"])
            == 1
        )
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"]["type"] == "NotSubforest"
        assert doc["error"]["message"]

    def test_missing_file(self, tmp_path, capsys):
        host = write_forest(tmp_path / "host.json", quartet())
        assert (
            main(["rlct", "forest", "--host", host, "--sub",
                  str(tmp_path / "nope.json")])
            == 1
        )

    def test_duplicate_column_names(self, star_files, tmp_path, capsys):
        # header 1,1,2,3 must not silently fit the first "1" column
        forest, data = star_files
        x = np.loadtxt(data, delimiter=",", skiprows=1)
        dup = write_csv(
            tmp_path / "dup.csv", ["1", "1", "2", "3"],
            np.column_stack([x[:, 0], x]),
        )
        assert main(["fit", "--forest", forest, "--data", dup]) == 1
        assert "duplicate column names" in capsys.readouterr().err
        assert main(["select", "--tree", forest, "--data", dup]) == 1
        assert "duplicate column names" in capsys.readouterr().err

    def test_bad_csv(self, tmp_path, capsys):
        forest = write_forest(tmp_path / "f.json", star3())
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2,3\n")
        assert main(["fit", "--forest", forest, "--data", str(bad)]) == 1

    def test_overflowing_samples(self, tmp_path, capsys):
        # finite samples whose squares pass the float range
        forest = write_forest(tmp_path / "f.json", star3())
        big = tmp_path / "big.csv"
        big.write_text("1,2,3\n0.1,0.2,0.3\n1e200,0.5,0.6\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", "--forest", forest, "--data", str(big)]) == 1
        assert capsys.readouterr().err.endswith("second moments overflow\n")

    def test_missing_column_named(self, star_files, tmp_path, capsys):
        forest, data = star_files
        x = np.loadtxt(data, delimiter=",", skiprows=1)
        renamed = write_csv(tmp_path / "renamed.csv", ["1", "2", "x"], x)
        for cmd in (["fit", "--forest"], ["select", "--tree"]):
            assert main(cmd + [forest, "--data", renamed]) == 1
            err = capsys.readouterr().err
            assert err == "error: stats lack a column for '3'\n"

    def test_one_sample_refused(self, star_files, tmp_path, capsys):
        forest, data = star_files
        one = tmp_path / "one.csv"
        one.write_text("".join(Path(data).read_text().splitlines(True)[:2]))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "lattice5", "n_values": [1]}))
        for argv in (["select", "--tree", forest, "--data", str(one)],
                     ["simulate", "--config", str(cfg)]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err == "error: sBIC needs n >= 2 samples, got n = 1\n"
            assert main(argv + ["--json"]) == 1
            doc = json.loads(capsys.readouterr().err)
            assert doc["error"]["type"] == "TooFewSamples"

    def test_sample_size_bound(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "lattice5",
                                   "n_values": [1_000_000_000]}))
        assert main(["simulate", "--config", str(cfg), "--json"]) == 1
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"]["type"] == "TooLarge"
        assert "sample size bound" in doc["error"]["message"]

    def test_ragged_rows(self, tmp_path, capsys):
        forest = write_forest(tmp_path / "f.json", star3())
        short = tmp_path / "short.csv"
        short.write_text("1,2,3\n0.1,0.2,0.3\n0.4,0.5\n")
        assert main(["fit", "--forest", forest, "--data", str(short)]) == 1
        assert "ragged rows" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--restarts", "0"], "restarts"),
            (["--restarts", "-3"], "restarts"),
            (["--max-iter", "0"], "max_iter"),
            (["--max-iter", "-1"], "max_iter"),
            (["--tol", "nan"], "rel_tol"),
            (["--tol", "-0.5"], "rel_tol"),
            (["--seed", "-1"], "seed"),
        ],
    )
    def test_bad_em_flags(self, star_files, tmp_path, capsys, flags, field):
        forest, data = star_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "lattice5", "n_values": [50],
                                   "replicates": 1}))
        for argv in (["fit", "--forest", forest, "--data", data],
                     ["select", "--tree", forest, "--data", data],
                     ["simulate", "--config", str(cfg)]):
            assert main(argv + flags) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and field in err, err

    @pytest.mark.parametrize("value", ["-1e-9", "-1E-9", "-inf"])
    def test_negative_float_flag_reaches_config(
        self, star_files, tmp_path, capsys, value
    ):
        # argparse alone takes these words for options and exits 2
        forest, data = star_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "lattice5", "n_values": [50],
                                   "replicates": 1}))
        for argv in (["fit", "--forest", forest, "--data", data],
                     ["select", "--tree", forest, "--data", data],
                     ["simulate", "--config", str(cfg)]):
            assert main(argv + ["--tol", value]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: rel_tol must be finite"), err
            assert main(argv + ["--tol", value, "--json"]) == 1
            doc = json.loads(capsys.readouterr().err)["error"]
            assert doc["type"] == "ValueError", doc
            assert doc["message"].startswith("rel_tol must be finite"), doc

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "lattice5", "replicate": 1}))
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: unknown config keys: replicate\n"

    @pytest.mark.parametrize(
        "config",
        [
            {"kind": "lattice5", "replicates": 2.5, "n_values": [50]},
            {"kind": "lattice5", "n_values": 125},
            {"n_values": [125]},
            [1, 2],
            {"kind": "lattice5", "replicates": "3"},
            {"kind": "lattice5", "n_values": [None]},
            {"kind": "lattice5", "n_values": [1e400]},
            {"kind": "lattice5", "n_values": [125.5]},
            {"kind": "depth_comparison", "m": ["6"]},
            {"kind": "lattice5", "replicates": True, "n_values": [50]},
            {"kind": "lattice5", "master_seed": False, "replicates": 1,
             "n_values": [50]},
            {"kind": "lattice5", "m": [True, 6], "replicates": 1,
             "n_values": [50]},
            {"kind": "lattice5", "n_values": [True, 125]},
        ],
    )
    def test_malformed_simulate_config(self, tmp_path, capsys, config):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(p)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert main(["simulate", "--config", str(p), "--json"]) == 1
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"]["type"] == "ValueError"
        assert doc["error"]["message"]

    @pytest.mark.parametrize(
        "command, doc",
        [
            (["rlct", "mono", "--in"], [1, 2]),
            (["rlct", "mono", "--in"], {"dim": 2, "terms": 5}),
            (["rlct", "mono", "--in"],
             {"dim": 1, "terms": [{"u": [None], "c": 0}], "domain": [[0, 1]]}),
            (["rlct", "mono", "--in"],
             {"dim": 1, "terms": [{"u": [1], "c": 0}], "domain": [[0, []]]}),
            (["lattice", "--tree"], [1]),
            (["lattice", "--tree"], {"nodes": [{"id": "1"}], "edges": [5]}),
            # numbers beyond float range; a str document is written as is
            (["rlct", "mono", "--in"],
             {"dim": 1, "terms": [{"u": [1], "c": 10**400 - 1}],
              "domain": [[-1, 1]]}),
            (["rlct", "mono", "--in"],
             '{"dim": 1, "terms": [{"u": [1], "c": 1e400}], '
             '"domain": [[-1, 1]]}'),
            (["rlct", "mono", "--in"],
             '{"dim": 1, "terms": [{"u": [1], "c": NaN}], '
             '"domain": [[-1, 1]]}'),
            (["rlct", "mono", "--in"],
             {"dim": 1, "terms": [{"u": [1], "c": 0}],
              "domain": [[-(10**400), 1]]}),
            # a latent flag that is not a JSON boolean, an id that is
            # neither a string nor an integer
            (["lattice", "--tree"],
             {"nodes": [{"id": "1", "latent": "false"}], "edges": []}),
            (["lattice", "--tree"],
             {"nodes": [{"id": "1", "latent": 0}], "edges": []}),
            (["lattice", "--tree"], {"nodes": [{"id": [1]}], "edges": []}),
            (["lattice", "--tree"], {"nodes": [{"id": None}], "edges": []}),
            (["lattice", "--tree"], {"nodes": [{"id": True}], "edges": []}),
            # an exponent beyond float range
            (["rlct", "mono", "--in"],
             {"dim": 2, "terms": [{"u": [10**400, 1], "c": 0.5}],
              "domain": [[-1, 1], [0, 1]]}),
        ],
    )
    def test_malformed_json_document(self, tmp_path, capsys, command, doc):
        p = tmp_path / "doc.json"
        p.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        assert main(command + [str(p)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert main(command + [str(p), "--json"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValueError"
        assert err["error"]["message"]


class TestLazyScipy:
    def test_lp_and_quadrature_load_on_first_use(self):
        script = (
            "import sys\n"
            "import latentforest, latentforest.cli\n"
            "lazy = ('scipy.optimize', 'scipy.integrate')\n"
            "print([m in sys.modules for m in lazy])\n"
            "from latentforest import MonomialSos, rlct_monomial_sos\n"
            "rlct_monomial_sos(MonomialSos(2, [((1, 1), 0.0)], [(0, 1)] * 2))\n"
            "print('scipy.optimize' in sys.modules)\n"
            # the Laplace oracle integrates without scipy.integrate
            "import numpy as np\n"
            "from latentforest import build_forest, h_q_monomials\n"
            "from latentforest import laplace_rlct_estimate\n"
            "star = build_forest([('1', False), ('2', False), ('3', False),\n"
            "                     ('h', True)], [('h', '1'), ('h', '2'), ('h', '3')])\n"
            "laplace_rlct_estimate(h_q_monomials(star, np.eye(3)))\n"
            "print('scipy.integrate' in sys.modules)\n"
        )
        assert run_python(["-c", script], 0) == "[False, False]\nTrue\nFalse\n"
