"""The degeneracy contract: what every reader of a drawing does with each
kind of degeneracy, from the pair classifier to the command's exit code.
This table is the one place that contract is pinned.

Rows, in `ROWS`:
- seven small drawings, one per kind of degeneracy and one with two
  triple points;
- the three grid drawings the CI smoke step writes to files: `flat`
  (three collinear corners), `tee` (a corner inside a segment) and the
  six-corner `star` (segments 0, 2 and 4 through (2, 2));
- one control in general position, `construct(5)`, which every column
  must tell apart from the degenerate rows: an empty report, f(5) = 6
  regions from both counters, 5 splitters and exit 0.

Columns, one test each:
- `test_report`: the exact `DegeneracyReport`, and the `classify_pairs`
  fields it is read from;
- `test_counters_refuse`: both region counters raise `DegenerateInput`
  with that report, and count the control;
- `test_splitter_analysis`: the `meets` list, or the refusal with the
  report where the splitter classes are undefined;
- `test_render`: the splitter lines of `to_svg(highlight_splitters=True)`,
  with no report built;
- `test_count_command`: `count` exits 4 with nothing on stdout and the
  one stderr line `degenerate geometry: <summary>`, spelled out in full
  here so that a change to the summary or to the line around it shows;
- `test_render_command`: `render` exits 0 with and without
  `--highlight-splitters`, with those splitter lines and with none.

The command columns call `cli.main` in process on the file that
`save_embedding` writes for the row. So the drawing is read by the file
parser and its failure reported by `commands.failure.exit_code`, as on
the command line, without an interpreter per row.
"""

from typing import NamedTuple, Optional

import pytest

from cycleregions import arrangement, embedding
from cycleregions.arrangement import (
    DegenerateInput,
    build_arrangement,
    region_count_traversal,
    splitter_analysis,
)
from cycleregions.cli import main
from cycleregions.degeneracy import DegeneracyReport
from cycleregions.embedding import (
    POLYGON_DIGITS,
    CycleEmbedding,
    construct,
    regular_polygon_points,
    save_embedding,
    validate_general_position,
)
from cycleregions.pairs import classify_pairs
from cycleregions.render import RenderOptions, to_svg

SPLITTER_LINE = 'class="segment splitter"'


def P(x, y):
    return (x, y)


def on_polygon(k, labels):
    poly = regular_polygon_points(k)
    return CycleEmbedding(len(labels), tuple(poly[i] for i in labels), 10**POLYGON_DIGITS)


class Row(NamedTuple):
    drawing: CycleEmbedding
    report: DegeneracyReport
    meets: Optional[tuple[int, ...]]  # None where splitter_analysis refuses
    splitter_lines: int  # in the highlighted SVG
    stderr: str  # of `count`, which exits 4 unless this is empty
    regions: Optional[int] = None  # None where the counters refuse


ROWS = {
    "triple_point": Row(
        on_polygon(6, (0, 3, 1, 4, 2, 5)),
        DegeneracyReport(triple_points=(((0, 0, 1), (0, 2, 4)),)),
        (5, 4, 4, 4, 5, 2),
        2,
        "degenerate geometry: 1 triple point(s); 0 corner incidence(s); "
        "0 collinear overlap(s); 0 coincident corner pair(s)",
    ),
    # The triple point first in (x, y) order is not the one on segment 0.
    "two_triple_points": Row(
        CycleEmbedding(
            8, (P(4, 2), P(3, 3), P(1, 0), P(4, 3), P(0, 2), P(4, 1), P(3, 4), P(0, 1))
        ),
        DegeneracyReport(triple_points=(((4, 3, 2), (1, 4, 7)), ((7, 5, 2), (0, 2, 5)))),
        (5, 5, 6, 6, 6, 6, 4, 6),
        0,
        "degenerate geometry: 2 triple point(s); 0 corner incidence(s); "
        "0 collinear overlap(s); 0 coincident corner pair(s)",
    ),
    "corner_incidence": Row(
        CycleEmbedding(5, (P(0, 0), P(4, 0), P(4, 4), P(2, 0), P(0, 4))),
        DegeneracyReport(corner_incidences=((3, 0),)),
        (4, 2, 3, 3, 2),
        1,
        "degenerate geometry: 0 triple point(s); 1 corner incidence(s); "
        "0 collinear overlap(s); 0 coincident corner pair(s)",
    ),
    "collinear_overlap": Row(
        CycleEmbedding(4, (P(0, 0), P(2, 0), P(1, 0), P(1, 2))),
        DegeneracyReport(corner_incidences=((2, 0),), collinear_overlaps=((0, 1),)),
        None,
        0,
        "degenerate geometry: 0 triple point(s); 1 corner incidence(s); "
        "1 collinear overlap(s); 0 coincident corner pair(s)",
    ),
    "coincident_corners": Row(
        on_polygon(4, (0, 1, 0, 3)),
        DegeneracyReport(collinear_overlaps=((0, 1), (2, 3)), coincident_corners=((0, 2),)),
        None,
        0,
        "degenerate geometry: 0 triple point(s); 0 corner incidence(s); "
        "2 collinear overlap(s); 1 coincident corner pair(s)",
    ),
    # Segment 0 collapses to a point.
    "adjacent_coincident_corners": Row(
        CycleEmbedding(3, (P(0, 0), P(0, 0), P(1, 1))),
        DegeneracyReport(coincident_corners=((0, 1),)),
        None,
        0,
        "degenerate geometry: 0 triple point(s); 0 corner incidence(s); "
        "0 collinear overlap(s); 1 coincident corner pair(s)",
    ),
    "fold_back": Row(
        CycleEmbedding(4, (P(0, 0), P(4, 0), P(2, 0), P(2, 3))),
        DegeneracyReport(corner_incidences=((2, 0),), collinear_overlaps=((0, 1),)),
        None,
        0,
        "degenerate geometry: 0 triple point(s); 1 corner incidence(s); "
        "1 collinear overlap(s); 0 coincident corner pair(s)",
    ),
    # Segment 2 runs back over segments 0 and 1.
    "flat": Row(
        CycleEmbedding(3, (P(0, 0), P(1, 0), P(2, 0))),
        DegeneracyReport(corner_incidences=((1, 2),), collinear_overlaps=((0, 2), (1, 2))),
        None,
        0,
        "degenerate geometry: 0 triple point(s); 1 corner incidence(s); "
        "2 collinear overlap(s); 0 coincident corner pair(s)",
    ),
    # A T-junction: corner 3 lies inside segment 0.
    "tee": Row(
        CycleEmbedding(5, (P(0, 0), P(4, 0), P(4, 2), P(2, 0), P(0, 2))),
        DegeneracyReport(corner_incidences=((3, 0),)),
        (4, 2, 3, 3, 2),
        1,
        "degenerate geometry: 0 triple point(s); 1 corner incidence(s); "
        "0 collinear overlap(s); 0 coincident corner pair(s)",
    ),
    # Segments 0, 2 and 4 cross at (2, 2); segments 0 and 2 meet all others.
    "star": Row(
        CycleEmbedding(6, (P(0, 0), P(4, 4), P(4, 0), P(0, 4), P(2, 0), P(2, 4))),
        DegeneracyReport(triple_points=(((2, 2, 1), (0, 2, 4)),)),
        (5, 2, 5, 4, 4, 4),
        2,
        "degenerate geometry: 1 triple point(s); 0 corner incidence(s); "
        "0 collinear overlap(s); 0 coincident corner pair(s)",
    ),
    "general_position": Row(construct(5), DegeneracyReport(), (4,) * 5, 5, "", regions=6),
}

CASES = sorted(ROWS)


@pytest.fixture
def no_report(monkeypatch):
    """Fail the test if a degeneracy report is built: highlighting reads
    the pair table alone. `arrangement` binds its own name for the check."""

    def refuse(emb):
        raise AssertionError("a degeneracy report was built")

    for module in (embedding, arrangement):
        monkeypatch.setattr(module, "validate_general_position", refuse)


@pytest.mark.parametrize("name", CASES)
def test_report(name):
    row = ROWS[name]
    report = validate_general_position(row.drawing)
    assert report == row.report
    pairs = classify_pairs(row.drawing.corners)
    assert (bool(pairs.ties), pairs.incidences, pairs.overlaps, pairs.coincident) == (
        bool(report.triple_points),
        *report[1:],
    )
    assert pairs.degenerate is not report.is_empty()


@pytest.mark.parametrize("counter", (build_arrangement, region_count_traversal))
@pytest.mark.parametrize("name", CASES)
def test_counters_refuse(name, counter):
    row = ROWS[name]
    if row.regions is not None:
        counted = counter(row.drawing)
        assert getattr(counted, "face_count", counted) == row.regions
        return
    with pytest.raises(DegenerateInput) as info:
        counter(row.drawing)
    assert info.value.report == row.report


@pytest.mark.parametrize("name", CASES)
def test_splitter_analysis(name):
    row = ROWS[name]
    if row.meets is not None:
        assert splitter_analysis(row.drawing).meets == row.meets
        return
    with pytest.raises(DegenerateInput) as info:
        splitter_analysis(row.drawing)
    assert type(info.value) is DegenerateInput  # not another ValueError
    assert info.value.report == row.report


@pytest.mark.parametrize("name", CASES)
def test_render(name, no_report):
    row = ROWS[name]
    svg = to_svg(row.drawing, RenderOptions(highlight_splitters=True))
    assert svg.count(SPLITTER_LINE) == row.splitter_lines
    assert svg.count("<line ") == row.drawing.n


def saved(name, tmp_path):
    path = str(tmp_path / f"{name}.txt")
    save_embedding(ROWS[name].drawing, path)
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", CASES)
def test_count_command(name, tmp_path, capsys):
    row = ROWS[name]
    code, out, err = run(capsys, "count", saved(name, tmp_path))
    if row.stderr:
        assert (code, out, err) == (4, "", row.stderr + "\n")
        return
    fields = dict(line.split(": ") for line in out.splitlines())
    assert (code, err) == (0, "")
    assert fields["regions_euler"] == fields["regions_traversal"] == str(row.regions)
    assert fields["splitters"] == str(row.splitter_lines)


@pytest.mark.parametrize("name", CASES)
def test_render_command(name, tmp_path, capsys, no_report):
    path, svg = saved(name, tmp_path), tmp_path / "drawing.svg"
    for flags, lines in (((), 0), (("--highlight-splitters",), ROWS[name].splitter_lines)):
        code, out, err = run(capsys, "render", path, "--out", str(svg), *flags)
        assert (code, out, err) == (0, f"wrote {svg}\n", "")
        assert svg.read_text().count(SPLITTER_LINE) == lines
