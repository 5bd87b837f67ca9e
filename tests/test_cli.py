"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_gen_trace_defaults(self):
        args = build_parser().parse_args(["gen-trace", "--out", "/tmp/x.trace"])
        assert args.kind == "nlanr"
        assert args.flows == 300

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replay", "--trace", "t", "--scheme", "bogus"])

    @pytest.mark.parametrize("command", ["replay", "stream"])
    def test_unknown_store_rejected(self, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [command, "--trace", "t", "--store", "zip"])


class TestGenAndReplay:
    def test_gen_then_replay_roundtrip(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.trace")
        assert main(["gen-trace", "--kind", "scenario3", "--flows", "20",
                     "--seed", "1", "--out", trace_path]) == 0
        out = capsys.readouterr().out
        assert "20 flows" in out

        assert main(["replay", "--trace", trace_path, "--scheme", "disco",
                     "--bits", "10", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "scheme=disco" in out
        assert "avg R" in out

    def test_replay_exact_zero_error(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.trace")
        main(["gen-trace", "--kind", "scenario3", "--flows", "10",
              "--seed", "3", "--out", trace_path])
        capsys.readouterr()
        assert main(["replay", "--trace", trace_path, "--scheme", "exact"]) == 0
        out = capsys.readouterr().out
        assert "scheme=exact" in out

    @pytest.mark.parametrize("store", ["pools", "morris"])
    def test_replay_with_compact_store(self, store, tmp_path, capsys):
        trace_path = str(tmp_path / "t.trace")
        main(["gen-trace", "--kind", "scenario3", "--flows", "12",
              "--seed", "5", "--out", trace_path])
        capsys.readouterr()
        assert main(["replay", "--trace", trace_path, "--scheme", "disco",
                     "--engine", "vector", "--store", store]) == 0
        assert "scheme=disco" in capsys.readouterr().out

    def test_stream_with_compact_store(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.trace")
        main(["gen-trace", "--kind", "scenario3", "--flows", "12",
              "--seed", "6", "--out", trace_path])
        capsys.readouterr()
        assert main(["stream", "--trace", trace_path, "--scheme", "exact",
                     "--store", "pools"]) == 0

    @pytest.mark.parametrize("scheme", ["sac", "sd", "anls1"])
    def test_other_schemes_run(self, scheme, tmp_path, capsys):
        trace_path = str(tmp_path / "t.trace")
        main(["gen-trace", "--kind", "scenario3", "--flows", "8",
              "--seed", "4", "--out", trace_path])
        capsys.readouterr()
        assert main(["replay", "--trace", trace_path, "--scheme", scheme]) == 0


class TestFigures:
    @pytest.mark.parametrize("fig", [2, 3, 9])
    def test_analytic_figures(self, fig, capsys):
        assert main(["figure", str(fig)]) == 0
        assert capsys.readouterr().out.strip()

    def test_figure_4(self, capsys):
        assert main(["figure", "4", "--runs", "5"]) == 0
        assert "bound" in capsys.readouterr().out

    def test_figure_5_small(self, capsys):
        assert main(["figure", "5", "--flows", "40", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "DISCO" in out and "SAC" in out

    def test_unknown_figure(self, capsys):
        assert main(["figure", "99"]) == 2


class TestTables:
    def test_table_5_small(self, capsys):
        assert main(["table", "5", "--packets", "3000"]) == 0
        out = capsys.readouterr().out
        assert "Gbps" in out

    def test_table_3_small(self, capsys):
        assert main(["table", "3", "--flows", "30", "--seed", "1"]) == 0
        assert "ANLS-I" in capsys.readouterr().out

    def test_unknown_table(self, capsys):
        assert main(["table", "42"]) == 2


class TestFlagParity:
    """replay/stream/serve/faults share one parent parser — the common
    flags must spell identically on every subcommand."""

    @pytest.mark.parametrize("command", ["replay", "stream", "serve", "faults"])
    def test_common_flags_present(self, command):
        from repro.cli import COMMON_FLAGS

        parser = build_parser()
        sub = next(
            action for action in parser._actions
            if hasattr(action, "choices") and command in (action.choices or {})
        ).choices[command]
        flags = {
            opt.lstrip("-").replace("-", "_")
            for action in sub._actions
            for opt in action.option_strings
        }
        missing = set(COMMON_FLAGS) - flags
        assert not missing, f"{command} lacks common flags: {sorted(missing)}"

    @pytest.mark.parametrize("command", ["replay", "stream", "serve", "faults"])
    def test_common_defaults_parse(self, command):
        argv = {
            "replay": ["replay", "--trace", "t"],
            "stream": ["stream", "--trace", "t"],
            "serve": ["serve", "--feed", "generator"],
            "faults": ["faults"],
        }[command]
        args = build_parser().parse_args(argv)
        for flag in ("scheme", "bits", "mode", "seed", "engine", "store",
                     "telemetry"):
            assert hasattr(args, flag), f"{command} missing --{flag}"

    @pytest.mark.parametrize("command", ["replay", "stream", "serve", "faults"])
    def test_engine_choices_are_the_runner_engines(self, command):
        from repro.harness.runner import ENGINES

        parser = build_parser()
        sub = next(
            action for action in parser._actions
            if hasattr(action, "choices") and command in (action.choices or {})
        ).choices[command]
        engine = next(action for action in sub._actions
                      if "--engine" in action.option_strings)
        assert tuple(engine.choices) == ENGINES

    def test_serve_bad_engine_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--feed", "generator",
                                       "--engine", "warp"])
        assert excinfo.value.code == 2


class TestTraceFlagParity:
    """replay/stream/serve share one --trace parent parser — the flag
    must spell (and document) identically on every subcommand."""

    COMMANDS = ("replay", "stream", "serve")

    @staticmethod
    def _trace_action(command):
        parser = build_parser()
        sub = next(
            action for action in parser._actions
            if hasattr(action, "choices") and command in (action.choices or {})
        ).choices[command]
        return next(a for a in sub._actions if "--trace" in a.option_strings)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_trace_flag_present_and_optional(self, command):
        action = self._trace_action(command)
        assert action.required is False
        assert action.default is None

    def test_trace_flag_help_identical_everywhere(self):
        helps = {c: self._trace_action(c).help for c in self.COMMANDS}
        assert len(set(helps.values())) == 1, helps
        metavars = {self._trace_action(c).metavar for c in self.COMMANDS}
        assert metavars == {"SPEC|PATH"}


class TestRegistrySpecs:
    def test_replay_accepts_registry_spec(self, capsys):
        assert main(["replay", "--trace", "scenario3:num_flows=8",
                     "--scheme", "exact", "--seed", "1"]) == 0
        assert "scheme=exact" in capsys.readouterr().out

    def test_stream_accepts_registry_spec(self, capsys):
        assert main(["stream", "--trace", "burst:num_flows=10",
                     "--scheme", "exact", "--seed", "1"]) == 0
        assert "avg R" in capsys.readouterr().out

    def test_replay_without_trace_exits_2(self, capsys):
        assert main(["replay", "--scheme", "exact"]) == 2
        assert "--trace" in capsys.readouterr().err

    def test_bad_spec_parameter_exits_2(self, capsys):
        assert main(["replay", "--trace", "scenario3:flowz=8"]) == 2
        assert "bad parameters" in capsys.readouterr().err

    def test_malformed_spec_pair_exits_2(self, capsys):
        assert main(["replay", "--trace", "scenario3:num_flows"]) == 2
        assert "key=value" in capsys.readouterr().err

    def test_unknown_registry_name_exits_2(self, capsys):
        assert main(["replay", "--trace", "wavelet"]) == 2
        assert "unknown trace" in capsys.readouterr().err
