import gc
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from cycleregions import arrangement, cli, embedding, probes
from cycleregions.cli import main
from cycleregions.embedding import (
    POLYGON_DIGITS,
    CycleEmbedding,
    construct,
    format_embedding,
    load_embedding,
    regular_polygon_points,
    save_embedding,
)
from cycleregions.render import RenderOptions, to_svg

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, flags=()):
    """Run `python [flags] -m cycleregions.cli argv` on this checkout's src
    and return its exit code, stdout and stderr. Its stdout is a pipe and
    block-buffered, as in a shell pipeline, so output lost at exit shows."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "cycleregions.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


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
        emb = CycleEmbedding(6, tuple(regular_polygon_points(6)), 10**POLYGON_DIGITS)
        path = tmp_path / "hexagon.txt"
        save_embedding(emb, str(path))
        code, out, _ = run(capsys, "count", str(path))
        assert code == 0
        assert "regions_euler: 1" in out

    @pytest.mark.parametrize("end", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_line_ends_are_read_alike(self, pentagon_file, tmp_path, capsys, end):
        # The file is read as bytes, with no newline translation: the parser
        # itself must split lines at a CRLF or a lone CR as at an LF.
        path = tmp_path / "ends.txt"
        lf = Path(pentagon_file).read_bytes()
        path.write_bytes(lf.replace(b"\n", end))
        assert load_embedding(str(path)) == load_embedding(pentagon_file)
        assert run(capsys, "count", str(path)) == run(capsys, "count", pentagon_file)

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "count", "/no/such/file.txt")
        assert code == 3
        assert "i/o failure" in err

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("not an embedding\n")
        code, _, err = run(capsys, "count", str(path))
        assert code == 2

    def test_cycle_of_two_is_bad_input(self, tmp_path, capsys):
        path = tmp_path / "two.txt"
        path.write_text("n 2\ncorner 0/1 0/1\ncorner 1/1 0/1\n")
        code, out, err = run(capsys, "count", str(path))
        assert (code, out) == (2, "")
        assert "bad input: cycle length must be at least 3, got 2" in err

    def test_coordinate_outside_the_grammar_is_bad_input(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("n 3\ncorner 1/-1 0/1\ncorner 1/1 0/1\ncorner 0/1 1/1\n")
        code, _, err = run(capsys, "count", str(path))
        assert code == 2
        assert "bad input: coordinate '1/-1' is not of the form p/q" in err

    def test_non_ascii_byte_is_bad_input(self, tmp_path, capsys):
        path = tmp_path / "accent.txt"
        path.write_bytes(b"n 3\ncorner 0/1 0/1\ncorner 1/1 0/1\ncorner 0/1 \xc3\xa9/1\n")
        code, out, err = run(capsys, "count", str(path))
        assert (code, out) == (2, "")
        assert err == (
            "bad input: 'ascii' codec can't decode byte 0xc3 in position 45:"
            " ordinal not in range(128)\n"
        )

    def test_number_past_the_int_digit_limit_is_bad_input(self, tmp_path, capsys):
        # int() refuses a string of more than sys.get_int_max_str_digits()
        # digits; its message, which varies between Python versions, is the
        # one printed.
        digits = "1" * 5000
        with pytest.raises(ValueError) as limit:
            int(digits)
        path = tmp_path / "long.txt"
        path.write_text(f"n 3\ncorner 0/1 0/1\ncorner {digits}/1 0/1\ncorner 0/1 1/1\n")
        code, out, err = run(capsys, "count", str(path))
        assert (code, out) == (2, "")
        assert err == f"bad input: {limit.value}\n"

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

    def test_best_is_pinned_for_each_seed(self, capsys):
        bests = []
        for seed in range(8):
            code, out, _ = run(capsys, "search", "--n", "8", "--trials", "25", "--seed", str(seed))
            assert code == 0
            bests += [int(line[6:]) for line in out.splitlines() if line.startswith("best: ")]
        assert bests == [15, 15, 14, 13, 10, 14, 14, 13]


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

    @pytest.mark.parametrize("flag", ["--width", "--height"])
    def test_render_size_past_the_float_range_is_bad_input(
        self, pentagon_file, tmp_path, capsys, flag
    ):
        # Screen coordinates are floats. The check runs before the file is
        # read, so a missing file exits 2 too, not 3.
        for path in (pentagon_file, str(tmp_path / "missing.txt")):
            assert run(capsys, "render", path, flag, "1" + "0" * 400) == (
                2,
                "",
                "bad input: render size must be at most 1.8e+308\n",
            )

    def test_search_perturbation_failure_is_degenerate(self, capsys, monkeypatch):
        # Every random draw is collinear, so best_region_count sends it to
        # perturb, which with no retries raises PerturbationFailed at once.
        monkeypatch.setattr(probes, "_random_corners", lambda rng, n: [(k, 0) for k in range(n)])
        monkeypatch.setattr(embedding, "PERTURB_RETRIES", 0)
        code, out, err = run(capsys, "search", "--n", "8", "--trials", "3")
        assert (code, out) == (4, "")
        assert err.startswith("degenerate geometry: no general-position embedding within 0 attempts")
        assert err.count("\n") == 1 and err.endswith("\n")

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

    def test_error_outside_the_contract_is_not_masked(self, pentagon_file, monkeypatch):
        # An error raised inside the program maps to no exit code, so main
        # re-raises it, traceback and all, rather than report it as one of
        # the documented failures. Only BadInput, not any ValueError, is
        # bad input.
        for error in (KeyError, ValueError):

            def fail(path):
                raise error(path)

            monkeypatch.setattr(embedding, "load_embedding", fail)
            with pytest.raises(error):
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


@pytest.mark.parametrize(
    "n,code,out,err",
    [
        (
            "6",
            0,
            "n: 6\nmax_regions: 8\nf_max: 8\nevaluated: 60\nwitness: 0,2,4,1,5,3\nstatus: PASS\n",
            "",
        ),
        ("2", 2, "", "bad input: n must be at least 3, got 2\n"),
    ],
)
def test_module_entry_point(n, code, out, err):
    # The benchmark runs every command as a module, which exits through
    # `cli.program()` as the console script does.
    assert run_module("oracle", "--n", n) == (code, out, err)


class TestProgramExit:
    """`program`, the exit of both entry routes, freezes the collector once
    `main` has returned, and only then."""

    @pytest.fixture
    def events(self, monkeypatch):
        """The order of main's returns and of gc.freeze calls, with the
        collector's own freeze stubbed out."""
        events = []
        true_main = cli.main

        def recorded_main(argv=None):
            code = true_main(argv)
            events.append(("main returned", code))
            return code

        monkeypatch.setattr(cli, "main", recorded_main)
        monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
        return events

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["oracle", "--n", "6"], 0),
            (["oracle", "--n", "2"], 2),
            (["count", "{dir}/flat.txt"], 4),
            (["construct", "--n", "6", "--out", "{dir}/c6.txt"], 5),
        ],
    )
    def test_freezes_once_after_main_returns(
        self, events, monkeypatch, tmp_path, capsys, argv, code
    ):
        (tmp_path / "flat.txt").write_text("n 3\ncorner 0/1 0/1\ncorner 1/1 0/1\ncorner 2/1 0/1\n")
        # The polygon visited in its own order misses construct's post-check.
        monkeypatch.setattr(embedding, "construction_order", lambda n: list(range(n)))
        argv = [arg.format(dir=tmp_path) for arg in argv]
        monkeypatch.setattr(sys, "argv", ["cycleregions", *argv])
        with pytest.raises(SystemExit) as exit_:
            cli.program()
        assert exit_.value.code == code
        assert events == [("main returned", code), "freeze"]

    def test_error_main_reraises_propagates_without_a_freeze(
        self, events, monkeypatch, pentagon_file
    ):
        def fail(path):
            raise KeyError(path)

        monkeypatch.setattr(embedding, "load_embedding", fail)
        monkeypatch.setattr(sys, "argv", ["cycleregions", "count", pentagon_file])
        with pytest.raises(KeyError):
            cli.program()
        assert events == []

    def test_main_in_process_leaves_the_collector_alone(self, tmp_path, capsys):
        frozen = gc.get_freeze_count()
        assert main(["construct", "--n", "6", "--out", str(tmp_path / "c6.txt")]) == 0
        assert main(["count", str(tmp_path / "c6.txt")]) == 0
        assert main(["oracle", "--n", "2"]) == 2
        assert gc.get_freeze_count() == frozen

    def test_frozen_exit_loses_nothing(self, tmp_path, capsys):
        # Under -X dev a file left open is a ResourceWarning at exit, which
        # -W error reports on stderr; a lost buffer would shorten stdout or
        # a written file.
        emb_path, svg_path = str(tmp_path / "c41.txt"), str(tmp_path / "c41.svg")
        lines = [
            ["construct", "--n", "41", "--out", emb_path],
            ["count", emb_path],
            ["render", emb_path, "--highlight-splitters", "--out", svg_path],
            ["verify"],
        ]
        outs = []
        for argv in lines:
            code, out, err = run_module(*argv, flags=("-X", "dev", "-W", "error"))
            assert (code, err) == (0, "")
            outs.append(out)
        emb = construct(41)
        assert Path(emb_path).read_text() == format_embedding(emb)
        assert Path(svg_path).read_text() == to_svg(emb, RenderOptions(highlight_splitters=True))
        assert outs == [run(capsys, *argv)[1] for argv in lines]


HELP = {
    None: """\
usage: cycleregions <command> [options]

Construct, count, verify, and render maximal-region straight-line embeddings
of cycle graphs.

commands:
  construct  build a maximal embedding and write it to a file
  count      count vertices, edges, and regions of an embedding file
  verify     check constructions against the closed forms over a range of n
  oracle     exact convex-position maximum for small n, by branch and bound
  search     randomized probing of the region-count bound
  render     render an embedding file to SVG

Run 'cycleregions <command> --help' for a command's options.
""",
    "construct": """\
usage: cycleregions construct [options]

build a maximal embedding and write it to a file

  --n N                 cycle length, at least 3 (required)
  --out TEXT            output embedding file (required)
  --seed N              printed only; changes no result (default 0)
  --format {human,tsv}  output layout (default human)
  -h, --help            print this help and exit
""",
    "count": """\
usage: cycleregions count path [options]

count vertices, edges, and regions of an embedding file

  path                  embedding file (required)
  --format {human,tsv}  output layout (default human)
  -h, --help            print this help and exit
""",
    "verify": """\
usage: cycleregions verify [options]

check constructions against the closed forms over a range of n

  --n-min N             smallest n, at least 3 (default 3)
  --n-max N             largest n (default 15)
  --seed N              printed only; changes no result (default 0)
  --format {human,tsv}  output layout (default human)
  -h, --help            print this help and exit
""",
    "oracle": """\
usage: cycleregions oracle [options]

exact convex-position maximum for small n, by branch and bound

  --n N                 cycle length, 3 to 19 (required)
  --format {human,tsv}  output layout (default human)
  -h, --help            print this help and exit
""",
    "search": """\
usage: cycleregions search [options]

randomized probing of the region-count bound

  --n N                 cycle length, at least 3 (required)
  --trials N            random drawings to count (default 1000)
  --seed N              random seed (default 0)
  --format {human,tsv}  output layout (default human)
  -h, --help            print this help and exit
""",
    "render": """\
usage: cycleregions render path [options]

render an embedding file to SVG

  path                    embedding file (required)
  --out TEXT              output SVG file (default: stdout)
  --width N               viewport width in pixels (default 640)
  --height N              viewport height in pixels (default 640)
  --[no-]label-corners    draw corner indices (default on)
  --highlight-splitters   stroke splitters in their own colour (default off)
  --shade-regions         fill the bounded regions (default off)
  --stroke TEXT           segment and corner colour (default #1f3a5f)
  --splitter-stroke TEXT  splitter colour (default #c0392b)
  --fill TEXT             region fill colour (default #f2d9a0)
  -h, --help              print this help and exit
""",
}


class TestCommandLine:
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    @pytest.mark.parametrize("command", list(HELP), ids=lambda c: c or "top")
    def test_help_is_pinned(self, capsys, command, flag):
        argv = [flag] if command is None else [command, flag]
        assert run(capsys, *argv) == (0, HELP[command], "")

    def test_help_wins_wherever_it_stands(self, capsys):
        # Only what comes before it is read, and a missing path or --n is
        # not an error when help is asked for.
        assert run(capsys, "render", "--width", "5", "--help") == (0, HELP["render"], "")
        assert run(capsys, "construct", "-h", "--n", "seven") == (0, HELP["construct"], "")

    def test_help_names_the_render_defaults(self):
        from cycleregions.render import RenderOptions

        defaults = RenderOptions._field_defaults
        for name in ("stroke", "splitter_stroke", "fill", "width", "height"):
            assert f"(default {defaults[name]})" in HELP["render"]

    def test_help_is_the_same_at_every_terminal_width(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = set()
        for columns in ("40", "200"):
            env = dict(os.environ, COLUMNS=columns)
            env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
            proc = subprocess.run(
                [sys.executable, "-m", "cycleregions.cli", "render", "--help"],
                env=env,
                capture_output=True,
            )
            assert (proc.returncode, proc.stderr) == (0, b"")
            outputs.add(proc.stdout)
        assert outputs == {HELP["render"].encode()}

    @pytest.mark.parametrize(
        "argv,err",
        [
            pytest.param((), "no command given; the commands are "
                         "construct, count, verify, oracle, search, render", id="no-command"),
            pytest.param(("frobnicate",), "unknown command 'frobnicate'; the commands are "
                         "construct, count, verify, oracle, search, render", id="unknown-command"),
            pytest.param(("render", "{path}", "--frob", "1"), "unknown option '--frob' for render",
                         id="unknown-option"),
            # Abbreviations are not read: an added option could change their meaning.
            pytest.param(("render", "{path}", "--high"), "unknown option '--high' for render",
                         id="abbreviation"),
            pytest.param(("construct", "--out", "{out}", "--n"), "--n needs a value",
                         id="no-value"),
            pytest.param(("construct", "--n", "seven", "--out", "{out}"),
                         "--n must be an integer: invalid literal for int() with base 10: 'seven'",
                         id="not-an-integer"),
            pytest.param(("count", "{path}", "--format", "xml"),
                         "--format must be one of human, tsv, got 'xml'", id="bad-choice"),
            pytest.param(("construct", "--out", "{out}"), "--n is required for construct",
                         id="missing-option"),
            pytest.param(("count",), "path is required for count", id="missing-path"),
            pytest.param(("count", "{path}", "extra"), "unexpected argument 'extra' for count",
                         id="extra-positional"),
            pytest.param(("render", "{path}", "--shade-regions=yes"),
                         "--shade-regions takes no value", id="switch-with-value"),
        ],
    )
    def test_malformed_line_is_bad_input(self, pentagon_file, tmp_path, capsys, argv, err):
        out_file = tmp_path / "x.txt"
        argv = [arg.format(path=pentagon_file, out=out_file) for arg in argv]
        assert run(capsys, *argv) == (2, "", f"bad input: {err}\n")
        assert not out_file.exists()

    def test_integer_past_the_digit_limit_is_bad_input(self, capsys):
        # int() refuses it where the digit limit exists (its message is
        # printed); elsewhere the oracle refuses n itself.
        code, out, err = run(capsys, "oracle", "--n", "1" * 4301)
        assert (code, out) == (2, "")
        assert err.startswith("bad input: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize(
        "spelled,canonical",
        [
            (("construct", "--n=7", "--out={out}"), ("construct", "--n", "7", "--out", "{out}")),
            (("count", "--format", "tsv", "{path}"), ("count", "{path}", "--format", "tsv")),
            (("count", "--", "{path}"), ("count", "{path}")),
            (("count", "{path}", "--format", "human", "--format=tsv"),
             ("count", "{path}", "--format", "tsv")),
            (("render", "--no-label-corners", "--width", "300", "{path}"),
             ("render", "{path}", "--width", "300", "--no-label-corners")),
            (("render", "{path}", "--no-label-corners", "--label-corners"), ("render", "{path}")),
        ],
    )
    def test_spellings_of_one_line_agree(self, pentagon_file, tmp_path, capsys, spelled, canonical):
        out_file = str(tmp_path / "x.txt")
        outputs = [
            run(capsys, *(arg.format(path=pentagon_file, out=out_file) for arg in argv))
            for argv in (spelled, canonical)
        ]
        assert outputs[0][0] == 0
        assert outputs[0] == outputs[1]
