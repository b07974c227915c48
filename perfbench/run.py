"""Benchmark of the cycleregions command line, one workload per run.

Usage, from the root of a source checkout:
    python3 perfbench/run.py --workload {certify,search,oracle} --seed N \
        --seconds S --trace {0,1}

Every command runs as a fresh `python -m cycleregions.cli ...` process with
`src` on PYTHONPATH, one at a time (a closed loop with one client). A cycle is
the workload's list of commands; cycles repeat until the next one would end
after --seconds. Every command's output is checked. After each command the
run times perfbench/reference.py, a fixed pure-Python job; cycle_norm_s is the
mean cycle time scaled by the reference's mean time, which cancels most of the
machine's drift in speed over a run and between runs. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}, where the
metrics are the end-to-end ones with --trace 0 and the per-layer ones with
--trace 1. The lines before it give every metric by name and unit.

With --trace 1 each command runs twice, untraced and then through
perfbench/launcher.py, which records a span around each layer call; the
per-layer numbers come from the traced runs and trace.overhead_s from the
difference. Per-layer counts and self times are totals per cycle, except
cli.startup_s and trace.overhead_s, which are per command; each is the median
over the run's cycles.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAUNCHER = Path(__file__).resolve().parent / "launcher.py"
REFERENCE = Path(__file__).resolve().parent / "reference.py"
REFERENCE_OUTPUT = "[(-1, 4641), (0, 563), (1, 3796)] 2277"
# cycle_norm_s reads in seconds on a machine where reference.py takes this long
REFERENCE_NOMINAL_S = 0.25

CERTIFY_NS = (40, 41)
VERIFY_RANGE = range(3, 16)  # the CLI's default --n-min..--n-max
SEARCH_N = 8
SEARCH_TRIALS = 25  # two drawings per trial
SEARCH_COMMANDS = 4  # per cycle, each with its own seed
ORACLE_N = 10
ORACLE_ORDERS = 181440  # (n-1)!/2 cycle orders at n = 10

SETUP_REPEATS = 7
COMMAND_TIMEOUT_S = 100
SVG_NS = "{http://www.w3.org/2000/svg}"


class SetupFailed(RuntimeError):
    """The checkout cannot run the benchmark: the package does not import,
    or it imports from somewhere other than this checkout's src."""


def f_max(n: int) -> int:
    """The paper's closed form, kept here so that checks do not trust the
    program's own copy."""
    return n * n // 2 - 2 * n + 2 if n % 2 == 0 else (n - 1) * (n - 2) // 2


def pairs(n: int) -> int:
    return n * (n - 1) // 2


def fields(stdout: str) -> dict[str, str]:
    """The `key: value` lines of a human-format command output."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key.strip()] = value.strip()
    return out


@dataclass(frozen=True)
class Command:
    kind: str  # timing label; a cycle's commands of one kind are summed
    argv: tuple[str, ...]
    n: int
    # (stdout, per-cycle context) -> None, or a description of what is wrong
    check: Callable[[str, dict], Optional[str]]


def expect(cond: bool, what: str) -> Optional[str]:
    return None if cond else what


def check_construct(n: int):
    def check(stdout: str, ctx: dict) -> Optional[str]:
        f = fields(stdout)
        return expect(
            f.get("n") == str(n) and f.get("regions") == str(f_max(n)),
            f"construct n={n}: regions {f.get('regions')} != f_max {f_max(n)}",
        )

    return check


def check_count(n: int):
    def check(stdout: str, ctx: dict) -> Optional[str]:
        f = fields(stdout)
        target = str(f_max(n))
        if not f.get("regions_euler") == f.get("regions_traversal") == target:
            return f"count n={n}: regions {f.get('regions_euler')}/{f.get('regions_traversal')} != {target}"
        classes = (f.get("splitters"), f.get("one_off_splitters"))
        want = (str(2), str(n - 2)) if n % 2 == 0 else (str(n), "0")
        ctx[("splitters", n)] = int(f["splitters"])
        return expect(classes == want, f"count n={n}: splitter classes {classes} != {want}")

    return check


def check_render(n: int, svg_path: Path):
    def check(stdout: str, ctx: dict) -> Optional[str]:
        try:
            root = ET.parse(svg_path).getroot()
        except (OSError, ET.ParseError) as exc:
            return f"render n={n}: {exc}"
        lines = root.findall(f"{SVG_NS}line")
        splitters = sum("splitter" in ln.get("class", "").split() for ln in lines)
        if len(lines) != n:
            return f"render n={n}: {len(lines)} <line> elements"
        return expect(
            splitters == ctx.get(("splitters", n)),
            f"render n={n}: {splitters} splitter lines, count said {ctx.get(('splitters', n))}",
        )

    return check


def check_verify(stdout: str, ctx: dict) -> Optional[str]:
    rows = [ln.split() for ln in stdout.splitlines()[2:]]
    seen = [int(r[0]) for r in rows if r]
    if seen != list(VERIFY_RANGE):
        return f"verify: rows for n={seen}"
    return expect(all(r[-1] == "True" for r in rows if r), "verify: a row has match=False")


def check_oracle(stdout: str, ctx: dict) -> Optional[str]:
    f = fields(stdout)
    return expect(
        f.get("max_regions") == str(f_max(ORACLE_N)) and f.get("evaluated") == str(ORACLE_ORDERS),
        f"oracle: max_regions {f.get('max_regions')}, evaluated {f.get('evaluated')}",
    )


def check_search(stdout: str, ctx: dict) -> Optional[str]:
    f = fields(stdout)
    best = int(f.get("best", "-1"))
    return expect(1 <= best <= f_max(SEARCH_N), f"search: best {best} outside [1, {f_max(SEARCH_N)}]")


def certify_cycle(seed: int, work: Path) -> list[Command]:
    cmds = []
    for n in CERTIFY_NS:
        emb = str(work / f"c{n}.emb")
        svg = work / f"c{n}.svg"
        cmds += [
            Command("construct", ("construct", "--n", str(n), "--seed", str(seed), "--out", emb), n, check_construct(n)),
            Command("count", ("count", emb), n, check_count(n)),
            Command(
                "render",
                ("render", emb, "--highlight-splitters", "--shade-regions", "--out", str(svg)),
                n,
                check_render(n, svg),
            ),
        ]
    cmds.append(Command("verify", ("verify", "--seed", str(seed)), 0, check_verify))
    return cmds


def search_cycle(seed: int, work: Path) -> list[Command]:
    # Several seeds per cycle average out how much work one seed's drawings take.
    return [
        Command(
            "search",
            ("search", "--n", str(SEARCH_N), "--trials", str(SEARCH_TRIALS), "--seed", str(seed * SEARCH_COMMANDS + i)),
            SEARCH_N,
            check_search,
        )
        for i in range(SEARCH_COMMANDS)
    ]


def oracle_cycle(seed: int, work: Path) -> list[Command]:
    return [Command("oracle", ("oracle", "--n", str(ORACLE_N)), ORACLE_N, check_oracle)]


WORKLOADS = {"certify": certify_cycle, "search": search_cycle, "oracle": oracle_cycle}


class Runner:
    """Runs commands as child processes and keeps the run's tallies."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.attempted = 0
        self.failures: list[str] = []

    def spawn(self, argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        start = time.perf_counter()
        proc = subprocess.run(
            argv, cwd=ROOT, env=self.env, capture_output=True, text=True,
            timeout=COMMAND_TIMEOUT_S,
        )
        return time.perf_counter() - start, proc

    def setup(self) -> float:
        """One set-up: a fresh work directory and a warm-up import, which
        also proves that the package comes from this checkout."""
        start = time.perf_counter()
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        _, proc = self.spawn([sys.executable, "-c", "import cycleregions.cli as c; print(c.__file__)"])
        if proc.returncode != 0:
            raise SetupFailed(f"cannot import cycleregions.cli: {proc.stderr.strip()}")
        if Path(proc.stdout.strip()).resolve() != SRC / "cycleregions" / "cli.py":
            raise SetupFailed(f"cycleregions imported from {proc.stdout.strip()}, not {SRC}")
        return time.perf_counter() - start

    def reference(self) -> float:
        """Run reference.py once and return its wall seconds."""
        seconds, proc = self.spawn([sys.executable, str(REFERENCE)])
        if proc.returncode != 0 or proc.stdout.strip() != REFERENCE_OUTPUT:
            raise SetupFailed(f"reference.py printed {proc.stdout.strip()!r}: {proc.stderr.strip()}")
        return seconds

    def run(self, cmd: Command, ctx: dict, traced_spans: Optional[Path] = None) -> float:
        """Run one command, check it, and return its wall seconds."""
        if traced_spans is None:
            argv = [sys.executable, "-m", "cycleregions.cli", *cmd.argv]
        else:
            argv = [sys.executable, str(LAUNCHER), str(traced_spans), repr(time.perf_counter()), "--", *cmd.argv]
        self.attempted += 1
        try:
            seconds, proc = self.spawn(argv)
        except subprocess.TimeoutExpired:
            self.failures.append(f"{' '.join(cmd.argv)}: timed out after {COMMAND_TIMEOUT_S} s")
            return float(COMMAND_TIMEOUT_S)
        if proc.returncode != 0:
            problem = f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
        else:
            problem = cmd.check(proc.stdout, ctx)
        if problem:
            self.failures.append(f"{' '.join(cmd.argv)}: {problem}")
        return seconds


def median(values):
    return statistics.median(values) if values else 0.0


# --------------------------------------------------------------------------
# Per-layer numbers from the spans of one traced command.

PER_LAYER = (
    # (name, unit) in the order they are printed
    ("geometry.segment_intersection.calls", "count"),
    ("geometry.segment_intersection.self_s", "s"),
    ("geometry.pair_passes.construct_even", "passes"),
    ("geometry.pair_passes.construct_odd", "passes"),
    ("geometry.pair_passes.count", "passes"),
    ("geometry.pair_passes.render", "passes"),
    ("geometry.pair_passes.search", "passes"),
    ("geometry.point_on_segment.calls", "count"),
    ("geometry.point_on_segment.self_s", "s"),
    ("geometry.sort_points_along.self_s", "s"),
    ("embedding.validate_general_position.calls", "count"),
    ("embedding.validate_general_position.self_s", "s"),
    ("embedding.construct.self_s", "s"),
    ("embedding.perturb.calls", "count"),
    ("embedding.perturb.attempts", "count"),
    ("embedding.io.self_s", "s"),
    ("embedding.io.bytes", "B"),
    ("arrangement.build_arrangement.self_s", "s"),
    ("arrangement.region_count_traversal.self_s", "s"),
    ("arrangement.splitter_analysis.self_s", "s"),
    ("arrangement.crossings", "count"),
    ("search.oracle.self_s", "s"),
    ("search.oracle.evaluated", "count"),
    ("search.random_search.self_s", "s"),
    ("search.drawings", "count"),
    ("search.best_over_fmax", "ratio"),
    ("render.to_svg.self_s", "s"),
    ("render.svg_bytes", "B"),
    ("cli.startup_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
)

# Self time of these spans, summed, gives the metric on the left.
SELF_TIME = {
    "geometry.segment_intersection.self_s": ("geometry.segment_intersection",),
    "geometry.point_on_segment.self_s": ("geometry.point_on_segment",),
    "geometry.sort_points_along.self_s": ("geometry.sort_points_along",),
    "embedding.validate_general_position.self_s": ("embedding.validate_general_position",),
    "embedding.construct.self_s": ("embedding.construct", "embedding.construct_even", "embedding.construct_odd"),
    "embedding.io.self_s": ("embedding.save_embedding", "embedding.load_embedding"),
    "arrangement.build_arrangement.self_s": ("arrangement.build_arrangement",),
    "arrangement.region_count_traversal.self_s": ("arrangement.region_count_traversal",),
    "arrangement.splitter_analysis.self_s": ("arrangement.splitter_analysis",),
    "search.oracle.self_s": ("search.oracle_max_regions_convex",),
    "search.random_search.self_s": ("search.random_search",),
    "render.to_svg.self_s": ("render.to_svg",),
    "cli.main.self_s": ("cli.main",),
}
CALLS = {
    "geometry.segment_intersection.calls": "geometry.segment_intersection",
    "geometry.point_on_segment.calls": "geometry.point_on_segment",
    "embedding.validate_general_position.calls": "embedding.validate_general_position",
    "embedding.perturb.calls": "embedding.perturb",
}
# Note on a span -> the metric it adds to.
NOTED = {
    ("arrangement.build_arrangement", "crossings"): "arrangement.crossings",
    ("search.oracle_max_regions_convex", "evaluated"): "search.oracle.evaluated",
    ("render.to_svg", "bytes"): "render.svg_bytes",
    ("embedding.save_embedding", "bytes"): "embedding.io.bytes",
    ("embedding.load_embedding", "bytes"): "embedding.io.bytes",
}


def pass_kind(cmd: Command) -> Optional[str]:
    """Which geometry.pair_passes.* metric a command's pair classifications
    belong to."""
    if cmd.kind == "construct":
        return "construct_even" if cmd.n % 2 == 0 else "construct_odd"
    return cmd.kind if cmd.kind in ("count", "render", "search") else None


class CycleTrace:
    """Per-layer totals of one cycle, summed over its traced commands."""

    def __init__(self):
        self.totals: Counter = Counter()
        self.pair_calls: Counter = Counter()  # pass kind -> segment_intersection calls
        self.pair_base: Counter = Counter()  # pass kind -> pairs of the drawings classified
        self.startups: list[float] = []
        self.best_over_fmax = 0.0

    def add(self, cmd: Command, record: dict) -> None:
        spans = record["spans"]
        self.startups.append(record["startup_s"])
        child_time = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_by_name = defaultdict(float)
        calls = Counter()
        drawings = 0
        for i, (name, start, end, parent, notes) in enumerate(spans):
            self_by_name[name] += end - start - child_time[i]
            calls[name] += 1
            for key, value in (notes or {}).items():
                if (name, key) in NOTED:
                    self.totals[NOTED[name, key]] += value
            parent_name = spans[parent][0] if parent >= 0 else None
            if name == "embedding.validate_general_position":
                if parent_name == "embedding.perturb":
                    self.totals["embedding.perturb.attempts"] += 1
                elif parent_name == "search.random_search":
                    drawings += 1
            if name == "search.random_search":
                self.best_over_fmax = max(self.best_over_fmax, notes["best"] / f_max(notes["n"]))
        for metric, names in SELF_TIME.items():
            self.totals[metric] += sum(self_by_name[nm] for nm in names)
        for metric, name in CALLS.items():
            self.totals[metric] += calls[name]
        self.totals["search.drawings"] += drawings
        kind = pass_kind(cmd)
        if kind is not None:
            # A command classifies the pairs of one drawing, or of each
            # drawing a search tries.
            self.pair_calls[kind] += calls["geometry.segment_intersection"]
            self.pair_base[kind] += (drawings if kind == "search" else 1) * pairs(cmd.n)

    def metrics(self, overhead_per_cmd: float) -> dict[str, float]:
        out = {name: float(self.totals[name]) for name, _ in PER_LAYER}
        for kind in ("construct_even", "construct_odd", "count", "render", "search"):
            base = self.pair_base[kind]
            out[f"geometry.pair_passes.{kind}"] = self.pair_calls[kind] / base if base else 0.0
        out["search.best_over_fmax"] = self.best_over_fmax
        out["cli.startup_s"] = median(self.startups)
        out["trace.overhead_s"] = overhead_per_cmd
        return out


# --------------------------------------------------------------------------


def run_workload(args) -> int:
    if not (SRC / "cycleregions" / "cli.py").is_file():
        print(f"no cycleregions sources under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_run" / str(os.getpid())
    runner = Runner(work)
    try:
        setups = [runner.setup() for _ in range(SETUP_REPEATS)]
        cycle = WORKLOADS[args.workload](args.seed, work)
        result = timed_loop(runner, cycle, args)
    except SetupFailed as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it is already gone
    kinds, references, traces, overheads, wall_s = result

    cycle_mean = statistics.fmean(map(sum, zip(*kinds.values())))
    e2e = {
        "setup_s": (median(setups), "s"),
        "cycle_norm_s": (cycle_mean * REFERENCE_NOMINAL_S / statistics.fmean(references), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
    }
    failed = len(runner.failures)
    report = {
        **e2e,
        "cycle_s": (sum(median(v) for v in kinds.values()), "s"),
        "reference_s": (median(references), "s"),
        "wall_s": (wall_s, "s"),
        "fail_ratio": (failed / runner.attempted, "ratio"),
        **workload_report(args.workload, kinds),
    }
    cycles = len(next(iter(kinds.values())))
    print(f"workload {args.workload}, seed {args.seed}, {cycles} cycles, "
          f"{runner.attempted} commands, trace {args.trace}")
    for problem in runner.failures:
        print(f"FAILED {problem}")
    for kind, seconds in kinds.items():
        print(f"{kind} seconds per cycle ({len(seconds)}): " + " ".join(f"{v:.4f}" for v in seconds))
    for name, (value, unit) in report.items():
        print(f"{name} = {value:.6g} {unit}")
    if args.trace:
        per_layer = [tr.metrics(oh) for tr, oh in zip(traces, overheads)]
        metrics = {
            name: {"value": median([m[name] for m in per_layer]), "unit": unit}
            for name, unit in PER_LAYER
        }
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    else:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in e2e.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def timed_loop(runner: Runner, cycle: list[Command], args):
    """Run cycles until the next one would end after args.seconds.

    Each untraced command is followed by one run of reference.py. Returns
    the seconds per command kind and cycle, the reference seconds, and with
    tracing the per-cycle traces and tracing overhead per command."""
    kinds: dict[str, list[float]] = {cmd.kind: [] for cmd in cycle}
    references: list[float] = []
    traces: list[CycleTrace] = []
    overheads: list[float] = []
    spans_file = runner.work / "spans.json"
    start = time.perf_counter()
    done = 0
    while True:
        ctx: dict = {}
        spent = Counter()
        trace = CycleTrace()
        overhead = 0.0
        for cmd in cycle:
            seconds = runner.run(cmd, ctx)
            spent[cmd.kind] += seconds
            references.append(runner.reference())
            if args.trace:
                spans_file.unlink(missing_ok=True)
                overhead += runner.run(cmd, ctx, spans_file) - seconds
                try:
                    record = json.loads(spans_file.read_text(encoding="ascii"))
                except (OSError, ValueError) as exc:
                    runner.failures.append(f"{' '.join(cmd.argv)}: no spans ({exc})")
                else:
                    trace.add(cmd, record)
        for kind, seconds in spent.items():
            kinds[kind].append(seconds)
        traces.append(trace)
        overheads.append(overhead / len(cycle))
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done > args.seconds:
            return kinds, references, traces, overheads, elapsed


def workload_report(workload: str, kinds: dict[str, list[float]]) -> dict:
    """The end-to-end numbers particular to a workload, as (value, unit)."""
    if workload == "certify":
        return {f"{k}_s": (median(kinds[k]), "s") for k in ("construct", "count", "render", "verify")}
    if workload == "search":
        return {"drawings_per_s": (2 * SEARCH_TRIALS * SEARCH_COMMANDS / median(kinds["search"]), "1/s")}
    return {"orders_per_s": (ORACLE_ORDERS / median(kinds["oracle"]), "1/s")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run_workload(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
