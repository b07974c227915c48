import xml.etree.ElementTree as ET

import pytest

from cycleregions import arrangement, embedding
from cycleregions.cli import main
from cycleregions.embedding import (
    CycleEmbedding,
    PerturbationFailed,
    load_embedding,
    regular_polygon_points,
    save_embedding,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def pentagon_file(tmp_path, capsys):
    path = tmp_path / "five.txt"
    code, _, _ = run(capsys, "construct", "--n", "5", "--out", str(path))
    assert code == 0
    return str(path)


class TestConstruct:
    def test_writes_file_and_reports_counts(self, tmp_path, capsys):
        path = tmp_path / "seven.txt"
        code, out, _ = run(capsys, "construct", "--n", "7", "--out", str(path))
        assert code == 0
        assert "n: 7" in out
        assert "vertices: 21" in out
        assert "edges: 35" in out
        assert "regions: 15" in out
        assert "seed: 0" in out
        emb = load_embedding(str(path))
        assert emb.n == 7

    def test_tsv_row(self, tmp_path, capsys):
        path = tmp_path / "four.txt"
        code, out, _ = run(
            capsys, "construct", "--n", "4", "--out", str(path), "--format", "tsv"
        )
        assert code == 0
        fields = out.strip().split("\t")
        assert fields[:4] == ["4", "5", "6", "2"]

    def test_small_n_is_bad_input(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "construct", "--n", "2", "--out", str(tmp_path / "x.txt")
        )
        assert code == 2
        assert "bad input" in err

    def test_unwritable_path_is_io_error(self, capsys):
        code, _, err = run(
            capsys, "construct", "--n", "5", "--out", "/nonexistent-dir/x.txt"
        )
        assert code == 3
        assert "i/o failure" in err


class TestCount:
    def test_counts_match_library(self, pentagon_file, capsys):
        code, out, _ = run(capsys, "count", pentagon_file)
        assert code == 0
        assert "regions_euler: 6" in out
        assert "regions_traversal: 6" in out
        assert "splitters: 5" in out

    def test_tsv(self, pentagon_file, capsys):
        code, out, _ = run(capsys, "count", pentagon_file, "--format", "tsv")
        assert code == 0
        assert out.strip().split("\t") == ["5", "10", "15", "6", "6", "5", "0", "0"]

    def test_convex_hexagon_single_region(self, tmp_path, capsys):
        emb = CycleEmbedding(6, tuple(regular_polygon_points(6, 1, 6)))
        path = tmp_path / "hexagon.txt"
        save_embedding(emb, str(path))
        code, out, _ = run(capsys, "count", str(path))
        assert code == 0
        assert "regions_euler: 1" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "count", "/no/such/file.txt")
        assert code == 3
        assert "i/o failure" in err

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("not an embedding\n")
        code, _, err = run(capsys, "count", str(path))
        assert code == 2

    def test_coordinate_outside_the_grammar_is_bad_input(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("n 3\ncorner 1/-1 0/1\ncorner 1/1 0/1\ncorner 0/1 1/1\n")
        code, _, err = run(capsys, "count", str(path))
        assert code == 2
        assert "bad input: coordinate '1/-1' is not of the form p/q" in err

    def test_degenerate_file(self, tmp_path, capsys):
        poly = regular_polygon_points(6, 1, 6)
        star = CycleEmbedding(6, tuple(poly[i] for i in (0, 3, 1, 4, 2, 5)))
        path = tmp_path / "star.txt"
        save_embedding(star, str(path))
        code, _, err = run(capsys, "count", str(path))
        assert code == 4
        assert "degenerate geometry" in err
        assert "triple point" in err


class TestVerify:
    def test_default_range_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--format", "tsv")
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()]
        assert len(rows) == 13  # n = 3..15
        assert all(row[-1] == "True" for row in rows)

    def test_upper_rows_match_closed_form(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n-min", "13", "--n-max", "15", "--format", "tsv"
        )
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()]
        assert [(r[0], r[2]) for r in rows] == [
            ("13", "66"),
            ("14", "72"),
            ("15", "91"),
        ]

    def test_human_table_prints_seed(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-min", "3", "--n-max", "4")
        assert code == 0
        assert "seed: 0" in out

    def test_deterministic_output(self, capsys):
        a = run(capsys, "verify", "--n-min", "3", "--n-max", "8", "--format", "tsv")
        b = run(capsys, "verify", "--n-min", "3", "--n-max", "8", "--format", "tsv")
        assert a == b

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "verify", "--n-min", "9", "--n-max", "5")
        assert code == 2
        assert "bad input" in err


class TestOracle:
    def test_pass_line(self, capsys):
        code, out, _ = run(capsys, "oracle", "--n", "5")
        assert code == 0
        assert "max_regions: 6" in out
        assert "witness: 0,2,4,1,3" in out
        assert "status: PASS" in out

    def test_nine(self, capsys):
        code, out, _ = run(capsys, "oracle", "--n", "9", "--format", "tsv")
        assert code == 0
        fields = out.strip().split("\t")
        assert fields[0] == "9"
        assert fields[1] == "28"
        assert fields[-1] == "PASS"

    def test_too_large(self, capsys):
        code, _, err = run(capsys, "oracle", "--n", "20")
        assert code == 2
        assert "bad input" in err


class TestSearch:
    def test_reports_bound_and_seed(self, capsys):
        code, out, _ = run(
            capsys, "search", "--n", "4", "--trials", "30", "--seed", "5"
        )
        assert code == 0
        assert "seed: 5" in out
        assert "f_max: 2" in out
        assert "status: PASS" in out

    def test_deterministic(self, capsys):
        a = run(capsys, "search", "--n", "5", "--trials", "20", "--format", "tsv")
        b = run(capsys, "search", "--n", "5", "--trials", "20", "--format", "tsv")
        assert a == b


class TestRender:
    def test_writes_svg(self, pentagon_file, tmp_path, capsys):
        out_path = tmp_path / "five.svg"
        code, out, _ = run(capsys, "render", pentagon_file, "--out", str(out_path))
        assert code == 0
        root = ET.parse(str(out_path)).getroot()
        assert len(root.findall("{http://www.w3.org/2000/svg}line")) == 5

    def test_stdout_mode(self, pentagon_file, capsys):
        code, out, _ = run(capsys, "render", pentagon_file, "--no-label-corners")
        assert code == 0
        assert out.startswith("<svg")
        assert "<text" not in out

    def test_highlight_flag(self, tmp_path, capsys):
        path = tmp_path / "four.txt"
        run(capsys, "construct", "--n", "4", "--out", str(path))
        code, out, _ = run(capsys, "render", str(path), "--highlight-splitters")
        assert code == 0
        assert out.count('class="segment splitter"') == 2

    def test_color_options_reach_the_svg(self, tmp_path, capsys):
        path = tmp_path / "seven.txt"
        run(capsys, "construct", "--n", "7", "--out", str(path))
        colors = ("--stroke", "#000000", "--splitter-stroke", "red", "--fill", "none")
        code, out, _ = run(
            capsys, "render", str(path), *colors, "--highlight-splitters", "--shade-regions"
        )
        assert code == 0
        # Every segment of the odd construction is a splitter; the stroke
        # colours the corners and their labels.
        assert out.count('stroke="red"') == 7
        assert 'fill="#000000"' in out
        assert 'fill="none" fill-rule="evenodd"' in out
        assert not any(default in out for default in ("#1f3a5f", "#c0392b", "#f2d9a0"))


class TestErrorContract:
    @pytest.mark.parametrize("flag,value", [("--width", "0"), ("--width", "-5"), ("--height", "0")])
    def test_non_positive_render_size_is_bad_input(self, pentagon_file, capsys, flag, value):
        code, out, err = run(capsys, "render", pentagon_file, flag, value)
        assert code == 2
        assert out == ""
        assert "bad input: render size must be positive" in err

    def test_perturbation_failure_is_degenerate(self, tmp_path, capsys, monkeypatch):
        def fail(n, seed=0):
            raise PerturbationFailed("no general-position embedding within 64 attempts")

        monkeypatch.setattr(embedding, "construct", fail)
        code, _, err = run(capsys, "construct", "--n", "6", "--out", str(tmp_path / "x.txt"))
        assert code == 4
        assert "degenerate geometry" in err

    @pytest.mark.parametrize("n", [6, 7])
    def test_post_check_failure_is_verification_failure(self, tmp_path, capsys, monkeypatch, n):
        # The polygon visited in its own order encloses 1 region, not f(n).
        monkeypatch.setattr(embedding, "construction_order", lambda n: list(range(n)))
        path = tmp_path / "x.txt"
        code, _, err = run(capsys, "construct", "--n", str(n), "--out", str(path))
        assert code == 5
        assert "construction check failed" in err
        assert not path.exists()

    @pytest.fixture
    def traversal_off_by_one_at_7(self, monkeypatch):
        true_count = arrangement.region_count_traversal
        monkeypatch.setattr(
            arrangement, "region_count_traversal", lambda emb: true_count(emb) + (emb.n == 7)
        )

    def test_counter_disagreement_in_count_is_verification_failure(
        self, tmp_path, capsys, traversal_off_by_one_at_7
    ):
        path = tmp_path / "seven.txt"
        run(capsys, "construct", "--n", "7", "--out", str(path))
        code, out, err = run(capsys, "count", str(path))
        assert code == 5
        assert "regions_traversal: 16" in out
        assert err == "internal error: region counters disagree (15 vs 16)\n"

    def test_counter_disagreement_in_verify_is_verification_failure(
        self, capsys, traversal_off_by_one_at_7
    ):
        code, out, err = run(capsys, "verify", "--n-max", "9")
        assert code == 5
        rows = out.splitlines()[2:]
        assert [int(row.split()[0]) for row in rows] == list(range(3, 10))
        assert [row.split()[-1] for row in rows] == ["True"] * 4 + ["False"] + ["True"] * 2
        assert err == "first failing row: n=7\n"

    def test_collapsed_segment_exits_alike_in_every_command(self, tmp_path, capsys):
        path = tmp_path / "collapsed.txt"
        path.write_text("n 3\ncorner 0/1 0/1\ncorner 0/1 0/1\ncorner 1/1 1/1\n")
        code, _, err = run(capsys, "count", str(path))
        assert code == 4
        assert "degenerate geometry" in err
        for extra in ((), ("--highlight-splitters",)):
            svg = tmp_path / "collapsed.svg"
            code, _, _ = run(capsys, "render", str(path), "--out", str(svg), *extra)
            assert code == 0
            assert 'class="segment splitter"' not in svg.read_text()

    def test_error_outside_the_contract_is_not_masked(self, pentagon_file, monkeypatch):
        # A KeyError maps to no exit code, so main re-raises it, traceback
        # and all, rather than report it as one of the documented failures.
        def fail(path):
            raise KeyError(path)

        monkeypatch.setattr(embedding, "load_embedding", fail)
        with pytest.raises(KeyError):
            main(["count", pentagon_file])

    @pytest.mark.parametrize("flag", ["--stroke", "--splitter-stroke", "--fill"])
    def test_color_with_markup_characters_is_bad_input(self, tmp_path, capsys, flag):
        # Colors are written into SVG attributes unescaped. The check runs
        # before the file is read, so a missing file still exits 2, not 3.
        svg = tmp_path / "bad.svg"
        for color in ('red" onload="alert(1)', "red'", "<x>", "a>b", "&amp;", "rød"):
            code, out, err = run(
                capsys, "render", str(tmp_path / "missing.txt"), flag, color, "--out", str(svg)
            )
            assert code == 2
            assert out == ""
            assert f"bad input: {flag} must not contain" in err
            assert not svg.exists()


def test_unknown_command_is_bad_input(capsys):
    assert main(["frobnicate"]) == 2


def test_missing_required_flag(capsys):
    assert main(["construct", "--out", "x.txt"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "--n", "8", "--seed", "-1"),
        ("verify", "--n-max", "5", "--seed", "-1"),
        ("search", "--n", "8", "--trials", "40", "--seed", "-1"),
    ],
)
def test_negative_seed_is_bad_input(argv, tmp_path, capsys):
    # random.Random(-s) equals random.Random(s), so a negative seed would
    # print itself while repeating the run of its absolute value.
    out_file = tmp_path / "c.txt"
    if argv[0] == "construct":
        argv = (*argv, "--out", str(out_file))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "bad input: --seed must be non-negative, got -1\n"
    assert not out_file.exists()
