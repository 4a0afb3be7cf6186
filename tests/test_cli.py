"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.datasets.example import build_example_network
from repro.io.xml_format import write_network


PHI0 = "<ip> [.#v0] .* [v3#.] <ip> 0"
PHI3 = "<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1"


class TestVerification:
    def test_satisfied_exit_code(self, capsys):
        assert main(["--builtin", "example", "--query", PHI0]) == 0
        out = capsys.readouterr().out
        assert "SATISFIED" in out
        assert "witness trace:" in out
        assert "e0" in out

    def test_unsatisfied_exit_code(self, capsys):
        assert main(["--builtin", "example", "--query", PHI3]) == 1
        assert "UNSATISFIED" in capsys.readouterr().out

    def test_weighted_verification(self, capsys):
        code = main(
            [
                "--builtin",
                "example",
                "--query",
                "<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1",
                "--weight",
                "hops, failures + 3*tunnels",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "weight=(5, 0)" in out

    def test_moped_engine(self, capsys):
        assert main(["--builtin", "example", "--engine", "moped", "--query", PHI0]) == 0

    def test_stats_flag(self, capsys):
        assert main(["--builtin", "example", "--query", PHI0, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "compile(over)" in out
        assert "solve(over)" in out

    def test_trace_json_flag(self, capsys):
        assert main(["--builtin", "example", "--query", PHI0, "--trace-json"]) == 0
        out = capsys.readouterr().out
        payload = out[out.index("{") :]
        parsed = json.loads(payload)
        assert parsed["trace"][0]["link"] == "e0"

    def test_no_reductions_flag(self, capsys):
        assert main(["--builtin", "example", "--query", PHI0, "--no-reductions"]) == 0


class TestInputSources:
    def test_xml_files(self, tmp_path, capsys):
        network = build_example_network()
        topo = tmp_path / "topo.xml"
        route = tmp_path / "route.xml"
        write_network(network, str(topo), str(route))
        code = main(
            ["--topology", str(topo), "--routing", str(route), "--query", PHI0]
        )
        assert code == 0

    def test_json_network(self, tmp_path, capsys):
        from repro.io.json_format import write_network_json

        network = build_example_network()
        path = tmp_path / "net.json"
        write_network_json(network, str(path))
        assert main(["--network", str(path), "--query", PHI0]) == 0

    def test_isis_import(self, tmp_path, capsys):
        from repro.io.isis import network_to_isis

        network = build_example_network()
        mapping, documents = network_to_isis(network)
        mapping_path = tmp_path / "mapping.txt"
        mapping_path.write_text(mapping)
        for name, content in documents.items():
            (tmp_path / name).write_text(content)
        code = main(
            [
                "--isis",
                str(mapping_path),
                "--isis-dir",
                str(tmp_path),
                "--query",
                PHI0,
            ]
        )
        assert code == 0

    def test_conversion_flow(self, tmp_path, capsys):
        """--write-topology / --write-routing mirror Appendix A.1."""
        from repro.io.isis import network_to_isis

        network = build_example_network()
        mapping, documents = network_to_isis(network)
        mapping_path = tmp_path / "mapping.txt"
        mapping_path.write_text(mapping)
        for name, content in documents.items():
            (tmp_path / name).write_text(content)
        topo_out = tmp_path / "topo.xml"
        route_out = tmp_path / "route.xml"
        code = main(
            [
                "--isis",
                str(mapping_path),
                "--isis-dir",
                str(tmp_path),
                "--write-topology",
                str(topo_out),
                "--write-routing",
                str(route_out),
            ]
        )
        assert code == 0
        # The converted files are a valid verification input.
        assert (
            main(
                [
                    "--topology",
                    str(topo_out),
                    "--routing",
                    str(route_out),
                    "--query",
                    PHI0,
                ]
            )
            == 0
        )


class TestErrors:
    def test_no_source(self, capsys):
        assert main(["--query", PHI0]) == 3
        assert "error" in capsys.readouterr().err

    def test_two_sources(self, capsys):
        assert main(["--builtin", "example", "--network", "x.json", "--query", PHI0]) == 3

    def test_no_query_no_conversion(self, capsys):
        assert main(["--builtin", "example"]) == 3

    def test_bad_query(self, capsys):
        assert main(["--builtin", "example", "--query", "<ip .*"]) == 3

    def test_missing_routing_file(self, capsys):
        assert main(["--topology", "only.xml", "--query", PHI0]) == 3

    def test_core_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--builtin", "example", "--query", PHI0, "--core", "tuple"])
        assert excinfo.value.code != 0
        assert "--core" in capsys.readouterr().err


class TestFarmFlags:
    def test_parallel_batch_matches_serial(self, tmp_path, capsys):
        suite = tmp_path / "suite.txt"
        suite.write_text(
            "phi0: <ip> [.#v0] .* [v3#.] <ip> 0\n"
            "phi3: <s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1\n"
        )
        code = main(
            ["--builtin", "example", "--queries-file", str(suite), "--jobs", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "phi0" in out and "satisfied" in out
        assert "phi3" in out and "unsatisfied" in out

    def test_sweep_failures(self, capsys):
        code = main(
            ["--builtin", "example", "--query", PHI0, "--sweep-failures", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        # baseline + 8 single-link scenarios; e0 and e7 are fatal.
        assert "query@baseline" in out
        assert "query@fail(e4)" in out
        assert "satisfied:     7" in out
        assert "unsatisfied:   2" in out

    def test_sweep_with_queries_file(self, tmp_path, capsys):
        suite = tmp_path / "suite.txt"
        suite.write_text("phi0: <ip> [.#v0] .* [v3#.] <ip> 0\n")
        code = main(
            [
                "--builtin",
                "example",
                "--queries-file",
                str(suite),
                "--sweep-failures",
                "1",
                "--jobs",
                "2",
            ]
        )
        assert code == 0
        assert "phi0@fail(e1)" in capsys.readouterr().out

    def test_sweep_limit_enforced(self, capsys):
        code = main(
            [
                "--builtin",
                "example",
                "--query",
                PHI0,
                "--sweep-failures",
                "3",
                "--sweep-limit",
                "10",
            ]
        )
        assert code == 3
        assert "limit" in capsys.readouterr().err


class TestProbabilisticSweep:
    PHI_PROTECTED = "<ip> [.#v0] .* [v3#.] <ip> 2"
    PHI_FRAGILE = "<ip> [.#vIn] .* <ip> 1"

    def test_holds_exits_zero(self, capsys):
        code = main(
            [
                "--builtin", "example", "--query", self.PHI_PROTECTED,
                "--prob-threshold", "0.9", "--prob-default", "0.01",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "HOLDS" in out
        assert "P(holds)" in out
        assert "most likely witness" in out

    def test_fails_exits_one(self, capsys):
        code = main(
            [
                "--builtin", "example", "--query", self.PHI_FRAGILE,
                "--prob-threshold", "0.9", "--prob-default", "0.01",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILS" in out
        assert "most likely counterexample" in out

    def test_sweep_without_threshold_is_undecided(self, capsys):
        code = main(
            [
                "--builtin", "example", "--query", self.PHI_PROTECTED,
                "--sweep-prob", "--prob-limit", "16",
            ]
        )
        assert code == 2
        assert "P(holds)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "builtin", ["example", "nordunet", "abilene", "nsfnet", "geant"]
    )
    def test_all_builtin_networks(self, builtin, capsys):
        # A topology-agnostic query: every builtin has *some* route.
        code = main(
            [
                "--builtin", builtin, "--query", "<ip> .* <ip> 2",
                "--prob-threshold", "0.5", "--prob-limit", "64",
            ]
        )
        assert code in (0, 1)
        out = capsys.readouterr().out
        assert "P(holds)" in out
        assert "most likely witness" in out

    def test_requires_a_query(self):
        assert main(["--builtin", "example", "--prob-threshold", "0.5"]) == 3

    def test_rejects_bad_threshold(self):
        code = main(
            [
                "--builtin", "example", "--query", self.PHI_PROTECTED,
                "--prob-threshold", "1.5",
            ]
        )
        assert code == 3

    def test_rejects_bad_weight_before_sweeping(self, capsys):
        code = main(
            [
                "--builtin", "example", "--query", self.PHI_PROTECTED,
                "--prob-threshold", "0.9", "--weight", "bogus",
            ]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert "bogus" in captured.err
        assert "P(holds)" not in captured.out


class TestTriage:
    UNSAT = "<ip ip> .* <ip> 0"
    NEEDS_FAILURE = "<ip> [.#v0] .* <mpls smpls ip> 1"

    def test_auto_settles_and_reports(self, capsys):
        code = main(
            ["--builtin", "example", "--query", PHI0, "--triage", "auto", "--stats"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SATISFIED" in out
        assert "verdict=proven_yes" in out

    def test_auto_matches_plain_verdicts(self, capsys):
        for query, expected in ((PHI0, 0), (PHI3, 1), (self.NEEDS_FAILURE, 0)):
            plain = main(["--builtin", "example", "--query", query])
            triaged = main(
                ["--builtin", "example", "--query", query, "--triage", "auto"]
            )
            assert plain == triaged == expected

    def test_only_mode_exit_codes(self, capsys):
        assert main(
            ["--builtin", "example", "--query", PHI0, "--triage", "only"]
        ) == 0
        assert main(
            ["--builtin", "example", "--query", self.UNSAT, "--triage", "only"]
        ) == 1
        # Needs a failure: triage alone cannot settle it — exit 2,
        # mirroring the lint-style inconclusive contract.
        assert main(
            ["--builtin", "example", "--query", self.NEEDS_FAILURE,
             "--triage", "only"]
        ) == 2
        assert "INCONCLUSIVE" in capsys.readouterr().out

    def test_rejects_unknown_mode(self, capsys):
        with pytest.raises(SystemExit):
            main(["--builtin", "example", "--query", PHI0, "--triage", "later"])

    def test_sweep_reports_triaged_scenarios(self, capsys):
        code = main(
            [
                "--builtin", "example", "--query", PHI0,
                "--sweep-failures", "1", "--triage", "auto",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "triaged:" in out

    def test_profile_shows_triage_spans(self, capsys):
        code = main(
            ["--builtin", "example", "--query", PHI0, "--triage", "auto",
             "--profile"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "triage" in out
