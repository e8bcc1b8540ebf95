"""Size and timing metrics."""

from choreo.corpus import corpus_root
from choreo.metrics import CSV_HEADER, collect_metrics, count_loc, to_csv


def corpus(name):
    return corpus_root() / "positive" / name


def test_count_loc_skips_blanks_and_comments():
    text = """
/* header
   continues */
class C@A {  // trailing comment counts the line
    // pure comment
    void m() { }
}
"""
    assert count_loc(text) == 3


def test_count_loc_reads_comment_openers_in_strings_as_code():
    text = """class C@A {
    void m() {
        System@A.out.println("/*"@A);
        System@A.out.println("after"@A);
    }
}
"""
    assert count_loc(text) == 6


def test_table_counts_for_named_programs():
    rows, reporter = collect_metrics(
        [corpus("HelloRoles.chor"), corpus("DistAuth.chor"),
         corpus("MergeSort.chor"), corpus("DistAuth10.chor")],
        warmup=0, measured=1)
    assert not reporter.has_errors()
    by_name = {r.program: r for r in rows}
    assert (by_name["HelloRoles"].roles, by_name["HelloRoles"].conditionals) == (2, 0)
    assert (by_name["DistAuth"].roles, by_name["DistAuth"].conditionals) == (3, 1)
    assert (by_name["MergeSort"].roles, by_name["MergeSort"].conditionals) == (3, 4)
    assert (by_name["DistAuth10"].roles, by_name["DistAuth10"].conditionals) == (10, 1)


def test_expansion_is_positive_and_grows_with_roles():
    rows, _ = collect_metrics(
        [corpus("DistAuth.chor"), corpus("DistAuth5.chor"), corpus("DistAuth10.chor")],
        warmup=0, measured=1)
    by_name = {r.program: r for r in rows}
    e3 = by_name["DistAuth"].expansion_pct
    e5 = by_name["DistAuth5"].expansion_pct
    e10 = by_name["DistAuth10"].expansion_pct
    assert e3 > 0
    assert e3 < e5 < e10


def test_non_timing_columns_are_deterministic():
    paths = [corpus("HelloRoles.chor"), corpus("MergeSort.chor")]
    r1, _ = collect_metrics(paths, warmup=0, measured=1)
    r2, _ = collect_metrics(paths, warmup=0, measured=1)
    strip = lambda rows: [(r.program, r.choral_loc, r.roles, r.conditionals,
                           r.local_loc, r.expansion_pct) for r in rows]
    assert strip(r1) == strip(r2)


def test_failing_file_is_reported_and_excluded(tmp_path):
    bad = tmp_path / "bad.chor"
    bad.write_text('class C@A { void m() { Integer@A x = "s"@A; } }')
    rows, reporter = collect_metrics([bad, corpus("HelloRoles.chor")],
                                     warmup=0, measured=1)
    assert reporter.has_errors()
    assert [r.program for r in rows] == ["HelloRoles"]


def test_csv_column_structure():
    rows, _ = collect_metrics([corpus("HelloRoles.chor")], warmup=0, measured=1)
    csv = to_csv(rows)
    lines = csv.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines[1].split(",")) == len(CSV_HEADER.split(","))
