import json
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import cyclebetti.bijection as bijection
import cyclebetti.cli as cli
from cyclebetti.cli import main
from cyclebetti.tableaux import hook_length_count, hook_shape, parse_tableau


@pytest.fixture
def runner():
    return CliRunner()


def combined_output(result):
    try:
        return result.output + result.stderr
    except ValueError:
        return result.output


class TestTable:
    def test_pentagon_csv(self, runner):
        result = runner.invoke(main, ["table", "--n", "5", "--format", "csv"])
        assert result.exit_code == 0
        assert result.output == "i,j,betti,syt\n0,0,1,\n1,2,5,5\n2,3,5,5\n3,5,1,\n"

    def test_square_csv(self, runner):
        result = runner.invoke(main, ["table", "--n", "4", "--format", "csv"])
        assert result.exit_code == 0
        assert result.output == "i,j,betti,syt\n0,0,1,\n1,2,2,2\n2,4,1,\n"

    def test_pentagon_text_has_header_and_rows(self, runner):
        result = runner.invoke(main, ["table", "--n", "5"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0].split() == ["i", "j", "betti", "syt"]
        assert lines[1].split() == ["0", "0", "1", "-"]
        assert lines[2].split() == ["1", "2", "5", "5"]

    def test_json_round_trips(self, runner):
        result = runner.invoke(main, ["table", "--n", "5", "--format", "json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc == {
            "n": 5,
            "entries": [
                {"i": 0, "j": 0, "betti": 1, "syt": None},
                {"i": 1, "j": 2, "betti": 5, "syt": 5},
                {"i": 2, "j": 3, "betti": 5, "syt": 5},
                {"i": 3, "j": 5, "betti": 1, "syt": None},
            ],
        }

    @pytest.mark.parametrize("n", ["3", "101", "-1"])
    def test_out_of_range_size_is_usage_error(self, runner, n):
        result = runner.invoke(main, ["table", "--n", n])
        assert result.exit_code == 2

    @pytest.mark.parametrize("n", range(4, 21))
    def test_largest_size_matches_closed_forms(self, runner, n):
        result = runner.invoke(main, ["table", "--n", str(n), "--format", "json"])
        assert result.exit_code == 0
        strand = {(j - 1, j): hook_length_count(hook_shape(n, j)) for j in range(2, n - 1)}
        expected = [{"i": 0, "j": 0, "betti": 1, "syt": None}]
        expected += [{"i": i, "j": j, "betti": v, "syt": v} for (i, j), v in strand.items()]
        expected += [{"i": n - 2, "j": n, "betti": 1, "syt": None}]
        assert json.loads(result.output) == {"n": n, "entries": expected}

    def test_deterministic(self, runner):
        first = runner.invoke(main, ["table", "--n", "6", "--format", "json"])
        second = runner.invoke(main, ["table", "--n", "6", "--format", "json"])
        assert first.output == second.output


class TestMapUnmap:
    def test_map_known(self, runner):
        result = runner.invoke(main, ["map", "1,2;3,4;5"])
        assert result.exit_code == 0
        assert result.output == "{2,4}|4\n"

    def test_map_invalid_filling_names_invariant(self, runner):
        result = runner.invoke(main, ["map", "2,1;3,4;5"])
        assert result.exit_code == 2
        assert "increasing" in combined_output(result)

    def test_map_wrong_shape(self, runner):
        result = runner.invoke(main, ["map", "1,2,3;4,5,6"])
        assert result.exit_code == 2
        assert "hook-plus-column shape (j, 2, 1, ..., 1)" in result.output

    def test_unmap_known(self, runner):
        result = runner.invoke(
            main, ["unmap", "--n", "6", "--j", "3", "--set", "2,4,6", "--a", "6"]
        )
        assert result.exit_code == 0
        assert result.output == "1,2,4;3,6;5\n"

    def test_unmap_inadmissible_marker(self, runner):
        result = runner.invoke(
            main, ["unmap", "--n", "6", "--j", "3", "--set", "2,4,6", "--a", "2"]
        )
        assert result.exit_code == 2
        assert "admissible" in combined_output(result)

    def test_unmap_rejects_bad_set_syntax(self, runner):
        result = runner.invoke(
            main, ["unmap", "--n", "6", "--j", "3", "--set", "2,x,6", "--a", "4"]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("subset", ["2 4,7", "2,4 6", " 2 4 , 7 "])
    def test_unmap_rejects_spaces_inside_an_entry(self, runner, subset):
        # the digits on either side of a space are not joined into one vertex
        result = runner.invoke(main, ["unmap", "--n", "30", "--j", "2", "--set", subset, "--a", "7"])
        assert result.exit_code == 2
        text = f"Error: --set expects comma-separated integers, got {subset!r}\n"
        assert text in combined_output(result)

    @pytest.mark.parametrize(
        "subset,text",
        [
            ("2,,4", "--set has an empty entry, got '2,,4'"),
            (",2,4", "--set has an empty entry, got ',2,4'"),
            ("2,4,", "--set has an empty entry, got '2,4,'"),
            ("2,2,4", "--set repeats vertices [2], got '2,2,4'"),
            ("4, 2,4,2", "--set repeats vertices [2, 4], got '4, 2,4,2'"),
        ],
    )
    def test_unmap_rejects_empty_and_repeated_entries(self, runner, subset, text):
        result = runner.invoke(main, ["unmap", "--n", "6", "--j", "2", "--set", subset, "--a", "4"])
        assert result.exit_code == 2
        assert f"Error: {text}\n" in combined_output(result)

    @pytest.mark.parametrize("subset", [" 2,4", "2 , 4 ", "  2,  4"])
    def test_unmap_accepts_surrounding_spaces(self, runner, subset):
        result = runner.invoke(main, ["unmap", "--n", "6", "--j", "2", "--set", subset, "--a", "4"])
        assert result.exit_code == 0
        assert result.output == "1,2;3,4;5;6\n"

    @pytest.mark.parametrize("text", ["1,2;3,4;5", "1,3;2,4;5", "1,4;2,5;3"])
    def test_unmap_inverts_map(self, runner, text):
        mapped = runner.invoke(main, ["map", text]).output.strip()
        vertices, marker = mapped.split("|")
        result = runner.invoke(
            main,
            ["unmap", "--n", "5", "--j", "2", "--set", vertices.strip("{}"), "--a", marker],
        )
        assert result.output.strip() == text


def stuck_on(text):
    # the verifier's hook transposer, except that this tableau's hook stays in place
    hook, transposed = parse_tableau(text).hook, bijection._transposed_hook
    return lambda h: h if h == hook else transposed(h)


class TestVerify:
    def test_range_passes(self, runner):
        result = runner.invoke(main, ["verify", "--n", "4..6"])
        assert result.exit_code == 0
        assert "all checks passed" in result.output

    def test_single_size_json(self, runner):
        result = runner.invoke(main, ["verify", "--n", "5", "--format", "json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["passed"] is True
        assert [(r["n"], r["j"], r["tableaux"], r["marked"]) for r in doc["results"]] == [
            (5, 2, 5, 5),
            (5, 3, 5, 5),
        ]

    def test_csv_header(self, runner):
        result = runner.invoke(main, ["verify", "--n", "4", "--format", "csv"])
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "n,j,tableaux,marked,bijection,duality"

    def test_duality_failure_exits_one(self, runner, monkeypatch):
        # a transpose that leaves one tableau in place breaks duality for (5, 2)
        monkeypatch.setattr(bijection, "_transposed_hook", stuck_on("1,2;3,4;5"))
        result = runner.invoke(main, ["verify", "--n", "5"])
        assert result.exit_code == 1
        assert result.stdout == (
            "n  j  tableaux  marked  bijection  duality\n"
            "5  2         5       5       pass     FAIL\n"
            "5  3         5       5       pass     pass\n"
            "CHECKS FAILED\n"
        )

    def test_duality_failure_on_the_longer_row_side(self, runner, monkeypatch):
        # stuck on a (5, 3) tableau: (5, 3) must fail on its own transpose,
        # while (5, 2), whose transposes include that tableau, still passes
        monkeypatch.setattr(bijection, "_transposed_hook", stuck_on("1,2,3;4,5"))
        result = runner.invoke(main, ["verify", "--n", "5"])
        assert result.exit_code == 1
        assert result.stdout == (
            "n  j  tableaux  marked  bijection  duality\n"
            "5  2         5       5       pass     pass\n"
            "5  3         5       5       pass     FAIL\n"
            "CHECKS FAILED\n"
        )

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_round_trip_drift_names_its_mismatches_on_stderr(self, runner, monkeypatch, fmt):
        # {2,4}|4 is rebuilt as 1,3;2,4;5 (the lookup reads _rebuilt_hook); csv
        # stdout stays the grid alone, as json keeps its document
        real = bijection._rebuilt_hook

        def drifting(pair, n):
            if (n, *pair) == (5, frozenset({2, 4}), 4):
                return parse_tableau("1,3;2,4;5").hook
            return real(pair, n)

        monkeypatch.setattr(bijection, "_rebuilt_hook", drifting)
        result = runner.invoke(main, ["verify", "--n", "5", "--format", fmt])
        assert result.exit_code == 1
        assert result.stderr == (
            "  tableau round trip drifts: 1,2;3,4;5 -> {2,4}|4 -> 1,3;2,4;5\n"
            "  marked round trip drifts: {2,4}|4 -> {1,3}|4\n"
        )
        if fmt == "csv":
            assert result.stdout == (
                "n,j,tableaux,marked,bijection,duality\n5,2,5,5,FAIL,pass\n5,3,5,5,pass,pass\n"
            )

    @pytest.mark.parametrize(
        "fmt,expected",
        [
            (
                "text",
                "n  j  tableaux  marked  bijection  duality\n"
                "4  2         2       2       pass     pass\n"
                "5  2         5       5       pass     pass\n"
                "5  3         5       5       pass     pass\n"
                "all checks passed\n",
            ),
            (
                "csv",
                "n,j,tableaux,marked,bijection,duality\n"
                "4,2,2,2,pass,pass\n"
                "5,2,5,5,pass,pass\n"
                "5,3,5,5,pass,pass\n",
            ),
        ],
    )
    def test_exact_stdout(self, runner, fmt, expected):
        result = runner.invoke(main, ["verify", "--n", "4..5", "--format", fmt])
        assert result.exit_code == 0
        assert result.stdout == expected

    def test_full_range_json_matches_the_golden_bytes(self, runner):
        # tests/golden/verify-4-14.json pins the whole exhaustive range byte for byte
        result = runner.invoke(main, ["verify", "--n", "4..14", "--format", "json"])
        assert result.exit_code == 0
        assert result.stdout == (Path(__file__).parent / "golden" / "verify-4-14.json").read_text()

    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    def test_table_for_4_to_20_matches_the_golden_bytes(self, runner, fmt):
        # tests/golden/table-4-20.{json,txt,csv} hold the table output of n = 4..20 in each
        # format, concatenated in order
        results = [runner.invoke(main, ["table", "--n", str(n), "--format", fmt]) for n in range(4, 21)]
        assert [result.exit_code for result in results] == [0] * 17
        golden = (Path(__file__).parent / "golden" / f"table-4-20.{fmt.replace('text', 'txt')}").read_bytes()
        assert b"".join(result.stdout_bytes for result in results) == golden

    @pytest.mark.parametrize("range_text", ["3", "15", "8..5", "abc", "4..x"])
    def test_bad_ranges_are_usage_errors(self, runner, range_text):
        result = runner.invoke(main, ["verify", "--n", range_text])
        assert result.exit_code == 2


class TestSyt:
    def test_lists_pentagon_family_in_canonical_order(self, runner):
        result = runner.invoke(main, ["syt", "--n", "5", "--j", "2"])
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "1,2;3,4;5",
            "1,2;3,5;4",
            "1,3;2,4;5",
            "1,3;2,5;4",
            "1,4;2,5;3",
        ]

    def test_count_only_prints_both_oracles(self, runner):
        result = runner.invoke(main, ["syt", "--n", "6", "--j", "3", "--count-only"])
        assert result.exit_code == 0
        assert result.output == "16 16\n"

    def test_count_only_square(self, runner):
        result = runner.invoke(main, ["syt", "--n", "4", "--j", "2", "--count-only"])
        assert result.output == "2 2\n"

    def test_count_only_json(self, runner):
        result = runner.invoke(
            main, ["syt", "--n", "5", "--j", "2", "--count-only", "--format", "json"]
        )
        assert json.loads(result.output) == {
            "n": 5,
            "j": 2,
            "enumerated": 5,
            "hook_length": 5,
        }

    @pytest.mark.parametrize(
        "args,expected",
        [
            (
                ["--format", "csv"],
                'tableau\n"1,2;3,4;5"\n"1,2;3,5;4"\n"1,3;2,4;5"\n"1,3;2,5;4"\n"1,4;2,5;3"\n',
            ),
            (
                ["--format", "json"],
                '{"n": 5, "j": 2, "tableaux": '
                '["1,2;3,4;5", "1,2;3,5;4", "1,3;2,4;5", "1,3;2,5;4", "1,4;2,5;3"]}\n',
            ),
            (["--count-only", "--format", "csv"], "enumerated,hook_length\n5,5\n"),
        ],
    )
    def test_exact_stdout(self, runner, args, expected):
        result = runner.invoke(main, ["syt", "--n", "5", "--j", "2", *args])
        assert result.exit_code == 0
        assert result.stdout == expected

    def test_largest_size_counts(self, runner):
        result = runner.invoke(main, ["syt", "--n", "14", "--j", "2", "--count-only"])
        assert result.exit_code == 0
        count = hook_length_count(hook_shape(14, 2))
        assert result.output == f"{count} {count}\n"

    @pytest.mark.parametrize(
        "args",
        [["--n", "5", "--j", "4"], ["--n", "3", "--j", "2"], ["--n", "15", "--j", "2"]],
    )
    def test_out_of_range_is_usage_error(self, runner, args):
        result = runner.invoke(main, ["syt", *args])
        assert result.exit_code == 2


class TestProcess:
    # how the process ends when its reader goes away, when it is interrupted, and when argument
    # parsing rejects a value

    def test_a_reader_closing_stdout_early_ends_the_run_with_status_one_and_no_stderr(self):
        # 9504 tableaux are far more than a pipe buffers, so the writer meets the closed pipe
        script = "from cyclebetti.cli import main; main()"
        command = [sys.executable, "-c", script, "syt", "--n", "14", "--j", "7"]
        with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as process:
            first = process.stdout.readline()
            process.stdout.close()
            stderr = process.stderr.read()
            status = process.wait(timeout=60)
        assert first == b"1,2,3,4,5,6,7;8,9;10;11;12;13;14\n"
        assert (status, stderr) == (1, b"")

    def test_an_interrupt_prints_aborted_on_stderr_and_exits_one(self, runner, monkeypatch):
        def interrupted(n):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "betti_table", interrupted)
        result = runner.invoke(main, ["table", "--n", "5"])
        assert result.exit_code == 1
        assert result.stderr.endswith("Aborted!\n")
        assert result.stdout == ""

    def test_a_size_that_is_not_an_integer_is_a_usage_error_naming_the_option(self, runner):
        result = runner.invoke(main, ["table", "--n", "x"])
        assert result.exit_code == 2
        last = result.stderr.splitlines()[-1]
        assert last.startswith("Error: ")
        assert "--n" in last
