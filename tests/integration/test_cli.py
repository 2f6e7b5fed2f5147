"""Tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def binary_path(tmp_path_factory):
    from repro.synth import CompilerProfile, generate_program, link_program

    profile = CompilerProfile("gcc", "O2", 64, True)
    spec = generate_program("cli", 40, profile, seed=91, cxx=True)
    binary = link_program(spec, profile)
    path = tmp_path_factory.mktemp("cli") / "bin"
    path.write_bytes(binary.data)
    return str(path)


class TestIdentify:
    def test_prints_addresses(self, binary_path, capsys):
        assert main(["identify", binary_path]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line]
        assert lines
        assert all(line.startswith("0x") for line in lines)

    def test_config_flag(self, binary_path, capsys):
        main(["identify", binary_path, "--config", "3"])
        n3 = len(capsys.readouterr().out.splitlines())
        main(["identify", binary_path, "--config", "2"])
        n2 = len(capsys.readouterr().out.splitlines())
        assert n3 > n2  # config 3 over-reports


class TestCompare:
    def test_lists_all_tools(self, binary_path, capsys):
        assert main(["compare", binary_path]) == 0
        out = capsys.readouterr().out
        for tool in ("funseeker", "ida", "ghidra", "fetch"):
            assert tool in out


class TestBtiDemo:
    def test_runs(self, capsys):
        assert main(["bti-demo"]) == 0
        out = capsys.readouterr().out
        assert "precision" in out
        assert "BTI" in out


class TestArgErrors:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize("command", [
        ["evaluate"], ["scan", "."], ["serve", "--run-dir", "unused"],
        ["chaos"], ["profile", "unused.elf"],
    ])
    def test_unknown_tool_exits_2_before_any_work(self, command, capsys):
        assert main([*command, "--tools", "nope"]) == 2
        assert "unknown detectors: ['nope']" in capsys.readouterr().err
