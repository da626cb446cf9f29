"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestPlace:
    def test_prints_placement_and_bound(self, capsys):
        assert main(["place", "5", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "vnodes=11" in out
        assert "Theorem 1 bound 11" in out
        assert "verified exactly" in out

    def test_shares_sum_to_one(self, capsys):
        main(["place", "4"])
        out = capsys.readouterr().out
        shares = [
            float(line.split("share=")[1])
            for line in out.splitlines() if "share=" in line
        ]
        assert sum(shares) == pytest.approx(1.0, abs=1e-4)

    def test_bad_input_exits_nonzero(self, capsys):
        assert main(["place", "0"]) == 1
        assert "error:" in capsys.readouterr().err


class TestRoute:
    def test_routes_keys(self, capsys):
        assert main(["route", "a", "b", "--servers", "6", "--active", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            key, server = line.split("\t")
            assert int(server) < 3

    def test_scenarios_differ(self, capsys):
        main(["route", "k", "--servers", "8", "--active", "8",
              "--scenario", "naive"])
        naive = capsys.readouterr().out
        main(["route", "k", "--servers", "8", "--active", "8",
              "--scenario", "proteus"])
        proteus = capsys.readouterr().out
        assert naive.startswith("k\t") and proteus.startswith("k\t")

    def test_replicas(self, capsys):
        assert main(["route", "k", "--servers", "6", "--active", "4",
                     "--replicas", "3"]) == 0
        owners = capsys.readouterr().out.strip().split("\t")[1].split(",")
        assert 1 <= len(owners) <= 3
        assert all(int(o) < 4 for o in owners)

    def test_replicas_require_proteus(self, capsys):
        assert main(["route", "k", "--servers", "4", "--active", "2",
                     "--replicas", "2", "--scenario", "naive"]) == 2

    def test_out_of_range_active_fails(self, capsys):
        assert main(["route", "k", "--servers", "4", "--active", "9"]) == 1


class TestBloomConfig:
    def test_paper_example(self, capsys):
        assert main(["bloom-config", "--kappa", "10000"]) == 0
        out = capsys.readouterr().out
        assert "counters (l)    = 379649" in out
        assert "counter bits(b) = 3" in out

    def test_invalid_bounds(self, capsys):
        assert main(["bloom-config", "--kappa", "100", "--pp", "2.0"]) == 1


class TestTraceTools:
    def test_gen_then_loadbalance(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["trace-gen", "--out", str(out), "--duration", "40",
                     "--rate", "50", "--pages", "500", "--seed", "3"]) == 0
        assert out.exists()
        capsys.readouterr()
        assert main(["loadbalance", "--trace", str(out), "--servers", "4",
                     "--schedule", "4,3", "--slot-seconds", "20"]) == 0
        text = capsys.readouterr().out
        assert "slot   0" in text and "mean=" in text

    def test_convert(self, tmp_path, capsys):
        src = tmp_path / "wb.txt"
        src.write_text(
            "1 100.0 http://en.wikipedia.org/wiki/A -\n"
            "2 101.0 http://de.wikipedia.org/wiki/B -\n"
            "3 102.0 http://en.wikipedia.org/wiki/C -\n"
        )
        out = tmp_path / "out.csv"
        assert main(["trace-convert", str(src), "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "kept 2/3" in text
        from repro.workload.trace import load_trace

        assert [r.key for r in load_trace(out)] == ["page:A", "page:C"]

    def test_missing_file(self, capsys):
        assert main(["trace-convert", "/nonexistent", "--out", "/tmp/x"]) == 1

    def test_bad_schedule_string_rejected(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        main(["trace-gen", "--out", str(out), "--duration", "10",
              "--rate", "10", "--pages", "10"])
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["loadbalance", "--trace", str(out), "--servers", "4",
                  "--schedule", "4,x", "--slot-seconds", "5"])


class TestConfigInit:
    def test_writes_loadable_config(self, tmp_path, capsys):
        out = tmp_path / "cluster.json"
        assert main(["config-init", "--out", str(out),
                     "--endpoints", "a:1,b:2,c:3",
                     "--keys-per-server", "10000", "--replicas", "2"]) == 0
        assert "3 servers" in capsys.readouterr().out
        from repro.config import ClusterConfig

        cfg = ClusterConfig.load(out)
        assert cfg.num_servers == 3
        assert cfg.replicas == 2
        assert cfg.digest.counter_bits == 3

    def test_bad_endpoint_rejected(self, tmp_path, capsys):
        assert main(["config-init", "--out", str(tmp_path / "x.json"),
                     "--endpoints", "no-port"]) == 2


class TestSimulate:
    def test_tiny_simulation(self, capsys):
        assert main([
            "simulate", "--scenarios", "static,proteus",
            "--servers", "3", "--schedule", "3,2,3",
            "--slot-seconds", "20", "--users-per-server", "5",
            "--ttl", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "Static" in out and "Proteus" in out
        assert "kWh" in out

    def test_unknown_scenario(self, capsys):
        assert main(["simulate", "--scenarios", "warp"]) == 2


class TestAutopilot:
    def test_open_loop_run(self, capsys):
        assert main(["autopilot", "--users", "30,24,18,24",
                     "--slot-seconds", "20", "--servers", "6",
                     "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "open_loop: 4 slots" in out
        assert "availability=1.0000" in out

    def test_closed_loop_with_a_kill(self, capsys):
        assert main(["autopilot", "--users", "30,24,18,18,24,30",
                     "--slot-seconds", "20", "--servers", "6",
                     "--health-feedback",
                     "--kill", "45:1:110", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "closed_loop: 6 slots" in out
        assert "1 scripted fault(s)" in out
        assert "emergency scale-ups=" in out

    def test_bad_fault_spec_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["autopilot", "--kill", "oops"])

    def test_fault_on_unknown_server_errors(self, capsys):
        assert main(["autopilot", "--users", "10,10",
                     "--kill", "5:99"]) == 1
        assert "error:" in capsys.readouterr().err


class TestConfigInitTTL:
    def test_fixed_ttl_round_trips(self, tmp_path, capsys):
        out = tmp_path / "cluster.json"
        assert main(["config-init", "--out", str(out),
                     "--endpoints", "a:1,b:2", "--ttl", "45"]) == 0
        assert "ttl=45.0s," in capsys.readouterr().out
        from repro.config import ClusterConfig

        assert ClusterConfig.load(out).ttl_seconds == 45.0
        with pytest.raises(SystemExit):  # the drain window has no policy
            main(["config-init", "--out", str(out), "--endpoints", "a:1",
                  "--ttl-policy", "adaptive"])
