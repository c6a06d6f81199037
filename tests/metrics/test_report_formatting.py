"""Edge cases of the plain-text report rendering."""

from repro.metrics.report import _format_cell, format_figure_result, format_table


def test_format_cell_ranges():
    assert _format_cell(0.0) == "0"
    assert _format_cell(1234567.0) == "1.235e+06"
    assert _format_cell(0.0000001) == "1.000e-07"
    assert _format_cell(3.14159) == "3.142"
    assert _format_cell(42) == "42"
    assert _format_cell("text") == "text"


def test_format_table_without_title_and_empty_rows():
    text = format_table(["a", "b"], [])
    lines = text.splitlines()
    assert len(lines) == 2  # header + separator, no title
    assert "a" in lines[0]


def test_format_figure_result_handles_missing_points():
    text = format_figure_result(
        title="demo",
        x_label="x",
        x_values=[1, 2, 3],
        series={"short": [0.1]},  # fewer values than x positions
    )
    assert "short" in text
    assert text.count("\n") >= 4


def test_format_table_alignment_is_stable():
    rows = [["roadrunner", 0.001], ["wasmedge-with-a-long-name", 1234.5]]
    text = format_table(["runtime", "latency"], rows)
    lines = text.splitlines()
    # Every row has the same column start for the second field.
    first_col_width = max(len("runtime"), len("roadrunner"), len("wasmedge-with-a-long-name"))
    for line in lines[2:]:
        assert line.startswith(("roadrunner", "wasmedge"))
        assert len(line) > first_col_width
