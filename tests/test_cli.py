"""Command-line driver: exit codes, diagnostics, determinism, piping."""

import pytest

from ordbool import run_command


def fixture_text(name: str) -> str:
    status, out = run_command(["fixture", name])
    assert status == 0
    return out


class TestFixtureAndValidate:
    def test_fixture_pipes_into_validate(self):
        text = fixture_text("v1")
        status, out = run_command(["validate", "-"], stdin_text=text)
        assert status == 0
        assert out == "valid: v1 (4 elements, 4 cover pairs)"

    def test_fixture_file_on_disk(self, tmp_path):
        path = tmp_path / "v1.poset"
        path.write_text(fixture_text("v1") + "\n")
        status, out = run_command(["validate", str(path)])
        assert status == 0 and "valid: v1" in out

    def test_unknown_fixture(self):
        status, out = run_command(["fixture", "nope"])
        assert status == 1
        assert out.startswith("error:")

    def test_invalid_file_is_a_diagnostic(self):
        status, out = run_command(["validate", "-"], stdin_text="poset t\nelem a\nlt a a\n")
        assert status == 1
        assert out.startswith("error:") and "\n" not in out

    def test_missing_file(self):
        status, out = run_command(["validate", "/no/such/file"])
        assert status == 1 and out.startswith("error:")

    def test_non_utf8_file_is_a_diagnostic(self, tmp_path):
        path = tmp_path / "bad.poset"
        path.write_bytes(b"poset t\nelem a\n\xff\xfe\n")
        status, out = run_command(["validate", str(path)])
        assert status == 1
        assert out.startswith("error: line 3, col 1: ") and "not UTF-8" in out
        assert "\n" not in out


class TestEval:
    def test_signed_join_output(self):
        text = fixture_text("supinf")
        status, out = run_command(["eval", "-", "y | sup{x,x'}"], stdin_text=text)
        assert (status, out) == (0, "{_top,f}")

    def test_unknown_label_is_exit_one(self):
        text = fixture_text("v1")
        status, out = run_command(["eval", "-", "a & nosuch"], stdin_text=text)
        assert status == 1 and out.startswith("error:")

    def test_syntax_error_is_exit_one(self):
        text = fixture_text("v1")
        status, out = run_command(["eval", "-", "a &"], stdin_text=text)
        assert status == 1 and out.startswith("error:")


class TestHeight:
    def test_selected_labels(self):
        text = fixture_text("supinf")
        status, out = run_command(["height", "-", "f", "x'"], stdin_text=text)
        assert status == 0
        assert out.splitlines() == ["f 5", "x' 3"]

    def test_all_labels_in_element_order(self):
        text = fixture_text("v1")
        status, out = run_command(["height", "-"], stdin_text=text)
        assert out.splitlines() == ["_bot 0", "a 1", "b 1", "_top 2"]


class TestProb:
    def test_sum_measure_shows_unreduced_ratio(self):
        text = fixture_text("pprime")
        status, out = run_command(
            ["prob", "-", "--measure", "sum", "a' |' !'a'"], stdin_text=text
        )
        assert (status, out) == (0, "1/3 (3/9)")

    def test_max_measure(self):
        text = fixture_text("eq1a")
        status, out = run_command(["prob", "-", "--measure", "max", "a"], stdin_text=text)
        assert (status, out) == (0, "1/2")

    def test_signed_expression_rejected(self):
        text = fixture_text("supinf")
        status, out = run_command(["prob", "-", "sup{x,x'}"], stdin_text=text)
        assert status == 1 and out.startswith("error:")


class TestCheck:
    def test_clean_poset_passes(self):
        text = fixture_text("supinf")
        status, out = run_command(
            ["check", "-", "--seed", "3", "--cases", "80"], stdin_text=text
        )
        assert status == 0
        lines = out.splitlines()
        assert lines[0].startswith("laws: ok")
        assert lines[1] == "differential: ok (80 checks)"

    def test_injected_fault_exits_nonzero(self):
        text = fixture_text("supinf")
        status, out = run_command(
            ["check", "-", "--seed", "3", "--cases", "80", "--inject-fault"],
            stdin_text=text,
        )
        assert status == 1
        assert "differential: FAILED" in out
        assert "mismatch" in out


    @pytest.mark.parametrize("cases", ["-5", "0"])
    def test_non_positive_case_count_is_usage(self, cases):
        text = fixture_text("v1")
        status, out = run_command(["check", "-", "--cases", cases], stdin_text=text)
        assert status == 2
        assert out.startswith("usage:")
        assert out.endswith(f"argument --cases: must be a positive integer, got {int(cases)}")


class TestDot:
    def test_dot_output(self):
        text = fixture_text("v1")
        status, out = run_command(["dot", "-"], stdin_text=text)
        assert status == 0
        assert out.startswith('digraph "v1" {')
        assert '"a" -> "_top";' in out


class TestUsage:
    def test_no_arguments(self):
        status, out = run_command([])
        assert status == 2

    def test_unknown_subcommand(self):
        status, out = run_command(["frobnicate"])
        assert status == 2

    def test_bad_flag_value(self):
        status, out = run_command(["prob", "-", "--measure", "median", "a"])
        assert status == 2


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fixture", "supinf"],
            ["dot", "-"],
            ["eval", "-", "!'!'a"],
            ["check", "-", "--seed", "9", "--cases", "40"],
        ],
    )
    def test_two_runs_agree(self, argv):
        stdin = fixture_text("supinf") if "-" in argv else None
        first = run_command(argv, stdin_text=stdin)
        second = run_command(argv, stdin_text=stdin)
        assert first == second
