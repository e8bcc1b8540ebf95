"""Command-line behaviour: exit codes, output layout, diagnostics modes."""

import json
import sys

import pytest

from choreo.cli import main
from choreo.corpus import corpus_root


def corpus(name):
    return str(corpus_root() / "positive" / name)


def negative(name):
    return str(corpus_root() / "negative" / name)


def test_check_clean_file_exits_zero(capsys):
    assert main(["check", corpus("HelloRoles.chor")]) == 0


def test_check_keeps_the_callers_recursion_limit(recursion_limit_1000, capsys):
    assert main(["check", corpus("HelloRoles.chor")]) == 0
    assert sys.getrecursionlimit() == 1000


def test_check_empty_file_exits_zero(tmp_path, capsys):
    f = tmp_path / "empty.chor"
    f.write_text("")
    assert main(["check", str(f)]) == 0
    assert capsys.readouterr().out == ""


def test_check_aliasing_renders_box_and_exits_one(capsys):
    code = main(["check", negative("role_aliasing.chor")])
    out = capsys.readouterr().out
    assert code == 1
    assert "RoleAliasing" in out
    assert "must play exactly one role" in out
    assert "^" in out  # caret rendering


def test_json_diagnostics_stream(capsys):
    code = main(["--json-diagnostics", "check", negative("type_mismatch.chor")])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 1
    records = [json.loads(line) for line in out]
    assert any(r["code"] == "TypeMismatch" for r in records)
    assert all({"file", "line", "col", "message", "severity"} <= set(r) for r in records)


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_project_output_layout(tmp_path, capsys):
    out = tmp_path / "gen"
    code = main(["project", corpus("HelloRoles.chor"), "--out", str(out)])
    assert code == 0
    assert (out / "A" / "HelloRoles_A.lchor").exists()
    assert (out / "B" / "HelloRoles_B.lchor").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    entries = {(u["generatedName"], u["role"]) for u in manifest["units"]}
    assert entries == {("HelloRoles_A", "A"), ("HelloRoles_B", "B")}
    assert all(u["sourceChoreography"] == "HelloRoles" for u in manifest["units"])


def test_project_reports_a_merge_failure_between_expressions(tmp_path, capsys):
    f = tmp_path / "NoChoice.chor"
    f.write_text("public class NoChoice@(A, B) { public static void go(Integer@A x) { "
                 'if (x > 0@A) { System@B.out.println("pos"@B); } '
                 'else { System@B.out.println("neg"@B); } } }')
    code = main(["--json-diagnostics", "project", str(f), "--out", str(tmp_path / "gen")])
    assert code == 1
    [line] = capsys.readouterr().out.splitlines()
    diag = json.loads(line)
    assert (diag["code"], diag["line"], diag["col"]) == ("MergeFailure", 1, 69)


def test_project_role_filter_and_annotate(tmp_path, capsys):
    out = tmp_path / "gen"
    code = main(["project", corpus("VitalsStreaming.chor"), "--out", str(out),
                 "--role", "Device", "--annotate"])
    assert code == 0
    files = sorted(p.name for p in (out / "Device").glob("*.lchor"))
    assert "VitalsStreaming_Device.lchor" in files
    assert not (out / "Gatherer").exists()
    text = (out / "Device" / "VitalsStreaming_Device.lchor").read_text()
    assert '@Choreography(name = "VitalsStreaming", role = "Device")' in text


def test_project_courtesy_option(tmp_path):
    out = tmp_path / "gen"
    main(["project", corpus("ConsumeItems.chor"), "--out", str(out), "--courtesy"])
    text = (out / "B" / "ConsumeItems_B.lchor").read_text()
    assert "void run() {" in text  # wrapper for the all-unit run(List) at B
    assert "run(Unit.id);" in text


def test_oracle_subcommand(capsys):
    code = main(["oracle", corpus("MergeSort.chor"),
                 "--manifest", corpus("MergeSort.run.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "return[A]: ['list', 3, 14, 15]" in out


def test_run_subcommand(capsys):
    code = main(["run", corpus("Karatsuba.chor"),
                 "--manifest", corpus("Karatsuba.run.json"), "--deadline", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "return[A]: 7006652" in out


@pytest.mark.parametrize("command", ["oracle", "run"])
def test_unknown_entry_class_is_an_error_report(command, tmp_path, capsys):
    manifest = tmp_path / "nope.run.json"
    manifest.write_text(json.dumps({"entry": {"class": "Nope", "method": "main"}}))
    code = main([command, corpus("HelloRoles.chor"), "--manifest", str(manifest)])
    out = capsys.readouterr().out
    assert code == 1
    assert "status: error\nerror: unknown entry class 'Nope'" in out


@pytest.mark.parametrize("command,error", [
    ("oracle", "constructor parameter 'ch_AB' of 'Mergesort' has no channel wiring"),
    ("run", "A: constructor parameter 'ch_AB' of 'Mergesort_A' has no channel wiring"),
])
def test_missing_channel_wiring_is_an_error_report(command, error, tmp_path, capsys):
    manifest = tmp_path / "nowire.run.json"
    manifest.write_text(json.dumps({"entry": {"class": "Mergesort", "method": "sort"},
                                    "args": {"A": [[3, 1, 2]]}}))
    code = main([command, corpus("MergeSort.chor"), "--manifest", str(manifest)])
    out = capsys.readouterr().out
    assert code == 1
    assert f"status: error\nerror: {error}\n" in out


def test_test_subcommand_pass_and_fail(capsys):
    assert main(["test", corpus("VitalsStreaming.chor")]) == 0
    out = capsys.readouterr().out
    assert "PASS VitalsStreamingTest.test1" in out
    broken = str(corpus_root() / "extra" / "VitalsStreamingNoop.chor")
    assert main(["test", broken]) == 1
    out = capsys.readouterr().out
    assert "FAIL VitalsStreamingTest.test1" in out


def test_bench_csv(tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    code = main(["bench", corpus("HelloRoles.chor"), "--csv", str(csv_path),
                 "--warmup", "1", "--measured", "2"])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == ("program,choral_loc,roles,conditionals,local_loc,"
                        "expansion_pct,typecheck_ms,projection_ms")
    row = lines[1].split(",")
    assert row[0] == "HelloRoles"
    assert row[1:5] == ["8", "2", "0", "12"]
    assert row[5] == "50"
