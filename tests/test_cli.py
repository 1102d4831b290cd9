import json

import pytest

from skewlie import cli
from skewlie.errors import ConfigError
from skewlie.reporting import VerificationReport
from skewlie.rings import GAUSS, FunctionRing, PolynomialRing


class TestParseSizes:
    def test_single(self):
        assert cli.parse_sizes("4") == [4]

    def test_range(self):
        assert cli.parse_sizes("3..5") == [3, 4, 5]

    def test_whitespace(self):
        assert cli.parse_sizes(" 3..4 ") == [3, 4]

    @pytest.mark.parametrize("bad", ["", "x", "3..x", "5..3", "1", "0..4",
                                     "3..%d" % (cli.SIZE_LIMIT + 1)])
    def test_rejects(self, bad):
        with pytest.raises(ConfigError):
            cli.parse_sizes(bad)

    def test_size_limit_is_inclusive(self):
        top = cli.SIZE_LIMIT
        assert cli.parse_sizes("%d..%d" % (top - 1, top)) == [top - 1, top]
        assert cli.make_ring("fnring", top).npoints == top


class TestMakeRing:
    def test_gauss(self):
        assert cli.make_ring("gauss", 2) is GAUSS

    def test_fnring(self):
        ring = cli.make_ring("fnring", 3)
        assert isinstance(ring, FunctionRing) and ring.npoints == 3

    def test_fnring_needs_points(self):
        with pytest.raises(ConfigError):
            cli.make_ring("fnring", 0)

    def test_poly(self):
        ring = cli.make_ring("poly", 2)
        assert isinstance(ring, PolynomialRing)
        assert ring.star(ring.var(0)) == ring.var(1)


class TestRun:
    def args(self, **kw):
        base = ["--mode", kw.pop("mode", "axioms")]
        for flag, val in kw.items():
            base += ["--%s" % flag.replace("_", "-"), str(val)]
        return cli.build_parser().parse_args(base)

    def test_axioms_report(self):
        rep = cli.run(self.args(mode="axioms", ring="gauss"))
        assert rep.passed and rep.counts()["total"] > 0

    def test_twolocal_small_n_rejected(self):
        with pytest.raises(ConfigError, match="three distinct indices"):
            cli.run(self.args(mode="twolocal", n="2"))

    def test_all_small_n_rejected(self):
        with pytest.raises(ConfigError):
            cli.run(self.args(mode="all", n="2..4"))

    def test_symcheck_small_n_rejected(self):
        with pytest.raises(ConfigError):
            cli.run(self.args(mode="symcheck", n="2"))

    def test_axioms_ignores_size(self):
        assert cli.run(self.args(mode="axioms", n="2")).passed

    def test_unknown_lemma_is_config_error(self):
        # rejected before any campaign runs, whatever the mode
        for mode in ("symcheck", "local"):
            with pytest.raises(ConfigError, match="no certificate builder"):
                cli.run(self.args(mode=mode, n="3", lemma="9.9"))

    def test_symcheck_single_lemma_full_payload(self):
        rep = cli.run(self.args(mode="symcheck", n="3", lemma="3.41"))
        assert rep.passed
        rec = rep.records[0]
        assert rec.anchor == "lemma 3.41"
        assert rec.payload["all_implied"] is True
        assert rec.payload["components"]

    def test_symcheck_all_lemmas_compact_payload(self):
        rep = cli.run(self.args(mode="symcheck", n="3"))
        assert rep.passed
        assert len(rep.records) == 15
        assert all(r.payload["not_implied"] == [] for r in rep.records)

    def test_twolocal_run(self):
        rep = cli.run(self.args(mode="twolocal", n="3", trials="2"))
        assert rep.passed
        assert any(r.anchor == "theorem 2.6" for r in rep.records)

    def test_local_fnring_includes_lift(self):
        rep = cli.run(self.args(mode="local", n="3", trials="2",
                                ring="fnring", omega="2"))
        assert rep.passed
        anchors = {r.anchor for r in rep.records}
        assert "theorem 4.4" in anchors and "theorem 5.1" in anchors

    def test_config_echo(self):
        rep = cli.run(self.args(mode="axioms", ring="fnring", omega="3",
                                seed="7"))
        assert rep.config["ring"] == "fnring[3]"
        assert rep.config["seed"] == 7 and rep.seed == 7


class TestMainExitCodes:
    def test_pass_prints_json(self, capsys):
        code = cli.main(["--mode", "axioms"])
        assert code == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["summary"]["failed"] == 0
        assert doc["schema_version"] == 1

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = cli.main(["--mode", "axioms", "--out", str(target)])
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["summary"]["failed"] == 0
        # stdout carries the summary line, not the JSON
        assert "checks" in capsys.readouterr().out

    def test_config_error_is_2(self, capsys):
        assert cli.main(["--mode", "twolocal", "--n", "2"]) == 2
        assert "three distinct indices" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_nonpositive_trials_is_2(self, trials, capsys):
        # a campaign with no trials would pass vacuously
        assert cli.main(["--mode", "local", "--n", "3",
                         "--trials", trials]) == 2
        assert "at least one trial" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,limit", [
        (["--mode", "local", "--ring", "fnring", "--omega", "100000000000"],
         cli.SIZE_LIMIT),
        (["--mode", "twolocal", "--n", "3..100000000000"], cli.SIZE_LIMIT),
        (["--mode", "symcheck", "--n", str(cli.SIZE_LIMIT + 1)],
         cli.SIZE_LIMIT),
        (["--mode", "all", "--n", "3..%d" % (cli.SIZE_LIMIT + 1)],
         cli.SIZE_LIMIT)],
        ids=["omega", "n", "symcheck", "all-symcheck"])
    def test_oversize_is_2(self, argv, limit, capsys):
        # refused before anything is allocated: exit 2, a typed error
        assert cli.main(argv + ["--trials", "1"]) == 2
        err = capsys.readouterr().err
        assert "at most %d" % limit in err
        assert "Traceback" not in err

    def test_symcheck_limit_is_inclusive(self):
        args = cli.build_parser().parse_args(
            ["--mode", "symcheck", "--n", str(cli.SIZE_LIMIT),
             "--lemma", "3.41"])
        assert cli.run(args).passed

    def test_bad_out_path_is_3(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "r.json"
        assert cli.main(["--mode", "axioms", "--out", str(missing)]) == 3

    def test_check_failure_is_1(self, monkeypatch, tmp_path, capsys):
        def fake_run(args):
            rep = VerificationReport("forced failure")
            rep.add("doomed", False, anchor="theorem 2.6", detail="forced")
            return rep
        monkeypatch.setattr(cli, "run", fake_run)
        target = tmp_path / "r.json"
        assert cli.main(["--out", str(target)]) == 1
        doc = json.loads(target.read_text())
        assert doc["summary"]["failed"] == 1
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_mode_errors(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--mode", "bogus"])
        assert exc.value.code == 2
