"""detforge benchmark: seeded workloads run through the real CLI.

Usage (from the repository root):

    python3 bench/run.py --workload eval-val --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in turn. The driver is a closed
loop with one client: it starts one ``python -m detforge.cli`` process at
a time from the working tree (``PYTHONPATH=src``) and waits for it, so
the two cores of a small machine measure the program and not the
scheduler.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json:
``wall_s``, the median over repeats of the whole command sequence's
launch-to-exit time; ``peak_rss_mb``, the median over repeats of the
largest peak RSS of any one command (from that child's own rusage); and
``setup_s``, the median time of a ``detforge --version`` process. With
``--trace 1`` it alternates untraced and traced sequences (see
trace_cli.py) and reports the per-layer metrics. Every invocation's
output is checked; a failed check counts in ``failed``. The last line of
stdout is the result JSON; the line before it is a summary with
``fail_ratio``, per-layer time shares and the sha256 of each command's
``result`` section.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gen
from trace_cli import PEAK_TARGETS

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = BENCH / "_work"

SETUP_MIN = 9
MIN_SEQUENCES = 3
# Every run must end within 180 s; children still running then are killed.
RUN_DEADLINE_S = 170.0

MIB = 1024.0 * 1024.0


# ---------------------------------------------------------------- workloads

def _steps(workload, files, workdir):
    """(step name, detforge argv) in order; paths relative to the repo root."""
    rel = {k: str(Path(v).relative_to(ROOT)) for k, v in files.items()}
    if workload == "eval-val":
        return [("eval", ["eval", "--ann", rel["ann"], "--dets", rel["dets"]])]
    if workload == "anchor-design":
        return [
            ("cluster", ["cluster", "--ann", rel["train"], "--k", "9", "--restarts", "5"]),
            ("match", ["match", "--ann", rel["scenes"], "--image-size", "1024", "1024"]),
        ]
    tiles = str((workdir / "tiles.json").relative_to(ROOT))
    records = str((workdir / "records.jsonl").relative_to(ROOT))
    return [
        ("stats", ["stats", "--ann", rel["ann"]]),
        ("tile", ["tile", "--ann", rel["ann"], "--export-ann", tiles]),
        ("sample", ["augment-replay", "--ann", rel["ann"], "--aug-id", "3", "--records-out", records]),
        ("replay", ["augment-replay", "--ann", rel["ann"], "--records", records]),
    ]


# Each check returns None when the report is right, else what is wrong.
# None of them pins a value the evaluator or matcher rewrites may change.

def _check_eval(report, facts, earlier):
    r = report["result"]
    if r["n_gt"] != facts["n_gt"]:
        return f"n_gt {r['n_gt']} != {facts['n_gt']} generated non-crowd GTs"
    if not 0.0 <= r["ap"] <= 1.0:
        return f"ap {r['ap']} outside [0, 1]"
    return None


def _check_cluster(report, facts, earlier):
    r = report["result"]
    if len(r["centroids"]) != r["k"] or r["k"] != 9:
        return f"{len(r['centroids'])} centroids for k={r['k']}"
    if len(r["assignments"]) != facts["n_boxes"]:
        return f"{len(r['assignments'])} assignments for {facts['n_boxes']} boxes"
    if not 0.0 < r["mean_iou"] <= 1.0:
        return f"mean_iou {r['mean_iou']} outside (0, 1]"
    return None


def _anchors_per_image(anchors):
    width, height = anchors["image_size"]
    per_cell = len(anchors["aspect_ratios"]) * len({a % 180.0 for a in anchors["angles"]})
    total = 0
    for stride in anchors["strides"]:
        sizes = len(anchors["sizes"]) if anchors["shared_sizes"] else 1
        total += math.ceil(width / stride) * math.ceil(height / stride) * sizes * per_cell
    return total


def _check_match(report, facts, earlier):
    r = report["result"]
    if r["n_positive"] + r["n_negative"] + r["n_ignored"] != r["n_anchors"]:
        return "positive + negative + ignored != n_anchors"
    expected = _anchors_per_image(report["config"]["anchors"]) * facts["n_scenes"]
    if r["n_anchors"] != expected:
        return f"n_anchors {r['n_anchors']} != analytic {expected}"
    return None


def _check_stats(report, facts, earlier):
    if report["result"]["total_instances"] != facts["n_instances"]:
        return "total_instances differs from the generated count"
    return None


def _tile_origins(extent, size, stride):
    if extent <= size:
        return 1
    return len(range(0, extent - size, stride)) + 1


def _check_tile(report, facts, earlier):
    t = report["config"]["tile"]
    stride = t["tile_size"] - t["overlap"]
    expected = sum(
        _tile_origins(w, t["tile_size"], stride) * _tile_origins(h, t["tile_size"], stride)
        for w, h in facts["image_sizes"]
    )
    if report["result"]["n_tiles"] != expected:
        return f"n_tiles {report['result']['n_tiles']} != {expected} from the tile-origin rule"
    return None


def _geometry_rows(report):
    keys = ("image_id", "n_boxes_in", "n_boxes_out", "width", "height")
    return [tuple(row[k] for k in keys) for row in report["result"]["images"]]


def _check_replay(report, facts, earlier):
    if "sample" not in earlier:
        return "no sample-mode report to compare with"
    if report["result"]["mode"] != "replay":
        return f"mode {report['result']['mode']!r}"
    if _geometry_rows(report) != _geometry_rows(earlier["sample"]):
        return "replayed box counts or sizes differ from the sampled ones"
    return None


def _check_version(stdout):
    return None if stdout.startswith(b"detforge ") else "unexpected --version output"


CHECKS = {
    "eval": _check_eval,
    "cluster": _check_cluster,
    "match": _check_match,
    "stats": _check_stats,
    "tile": _check_tile,
    "sample": lambda report, facts, earlier: None,
    "replay": _check_replay,
}


# -------------------------------------------------------------- invocations

UNTRACED = [sys.executable, "-m", "detforge.cli"]


def _child_env():
    env = dict(os.environ)
    # Users run from compiled bytecode; let the warm-up write it whatever
    # the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Runner:
    """Starts one child at a time, checks its output and tallies failures."""

    def __init__(self, workdir, facts, deadline):
        self.workdir = workdir
        self.facts = facts
        self.deadline = deadline
        self.env = _child_env()
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.reference = {}  # step name -> first stdout of this run
        self.result_sha256 = {}

    def invoke(self, argv):
        """Run argv to exit; return (wall s, peak RSS MiB, exit code, stdout, stderr)."""
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (wall, usage.ru_maxrss / 1024.0, proc.returncode,
                out_path.read_bytes(), err_path.read_text(errors="replace"))

    def _tally(self, name, problem):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{name}: {problem}")

    def version(self):
        wall, _, code, stdout, stderr = self.invoke(UNTRACED + ["--version"])
        self._tally("version", _exit_problem(code, stderr) or _check_version(stdout))
        return wall

    def step(self, name, argv, launcher, earlier):
        """Run one command of a sequence; return (wall, rss MiB, stdout)."""
        wall, rss, code, stdout, stderr = self.invoke(launcher + argv)
        problem = _exit_problem(code, stderr)
        if problem is None:
            problem = self._check(name, stdout, earlier)
        self._tally(name, problem)
        return wall, rss, stdout

    def _check(self, name, stdout, earlier):
        try:
            report = json.loads(stdout)
        except ValueError:
            return "stdout is not JSON"
        earlier[name] = report
        if self.reference.setdefault(name, stdout) != stdout:
            return "report differs from this run's first invocation of the command"
        try:
            result = json.dumps(report["result"], sort_keys=True).encode()
            self.result_sha256.setdefault(name, hashlib.sha256(result).hexdigest())
            return CHECKS[name](report, self.facts, earlier)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return f"report lacks an expected field ({exc!r})"


def _exit_problem(code, stderr):
    if code == 0:
        return None
    lines = stderr.strip().splitlines()
    return f"exit {code}" + (f" ({lines[-1][:160]})" if lines else "")


def _run_sequence(runner, steps, launcher_for):
    """One pass over the steps; returns (name, wall s, peak RSS MiB, stdout) per step."""
    earlier = {}
    done = []
    for name, argv in steps:
        launcher = launcher_for(name)
        wall, rss, stdout = runner.step(name, argv, launcher, earlier)
        done.append((name, wall, rss, stdout))
    return done


# ------------------------------------------------------------------ tracing

def _layer_values(span_files, stdout_bytes):
    """Per-layer values of one traced sequence from its steps' span files.

    Besides the metrics it sums, per layer (the span name's first part),
    ``self_s.<layer>``: span time not covered by child spans, and
    ``called_s.<layer>``: time of the calls cli dispatch makes into that
    layer directly, children included. Returns (values, targets not
    found, steps that called a peak target).
    """
    values = {"cli.report_bytes": float(stdout_bytes)}
    missing = set()
    peak_steps = set()

    def add(key, amount):
        values[key] = values.get(key, 0) + amount

    for step, path in span_files:
        data = json.loads(path.read_text())
        missing.update(data["missing"])
        spans = data["spans"]
        child_time = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent is not None:
                child_time[parent] += end - start
        for (name, parent, start, end), inner in zip(spans, child_time):
            layer = name.split(".")[0]
            add(name + ".s", end - start)
            add(name + ".self_s", end - start - inner)
            add("self_s." + layer, end - start - inner)
            if parent is not None and spans[parent][0] == "cli.dispatch":
                add("called_s." + layer, end - start)
            if name in PEAK_TARGETS:
                peak_steps.add(step)
        for key, count in data["counts"].items():
            add(key, count)
    return values, missing, peak_steps


def _trace_launcher(runner, mode):
    def launcher_for(name):
        path = runner.workdir / f"spans_{mode}_{name}.json"
        return [sys.executable, str(BENCH / "trace_cli.py"), mode, str(path), "--"]

    return launcher_for


def _traced_sequence(runner, steps):
    launcher_for = _trace_launcher(runner, "time")
    done = _run_sequence(runner, steps, launcher_for)
    span_files = [(name, runner.workdir / f"spans_time_{name}.json") for name, *_ in done]
    present = [(name, p) for name, p in span_files if p.exists()]
    values, missing, peak_steps = _layer_values(present, sum(len(d[3]) for d in done))
    wall = sum(d[1] for d in done)
    # interpreter start, imports and argument parsing: outside cli.dispatch
    values["self_s.startup"] = wall - values.get("cli.dispatch.s", 0.0)
    for _, p in present:
        p.unlink()
    return wall, values, missing, peak_steps


def _peak_pass(runner, steps, wanted):
    """Re-run the steps that call a peak target, with tracemalloc on."""
    peaks = {}
    launcher_for = _trace_launcher(runner, "peak")
    for name, argv in steps:
        if name not in wanted:
            continue
        runner.step(name, argv, launcher_for(name), {})
        path = runner.workdir / f"spans_peak_{name}.json"
        if path.exists():
            for target, peak in json.loads(path.read_text())["peak_bytes"].items():
                peaks[target + ".peak_mb"] = max(peaks.get(target + ".peak_mb", 0.0), peak / MIB)
    return peaks


# -------------------------------------------------------------------- runs

def _prepare(workload, seed):
    workdir = WORK / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    files, facts = gen.GENERATORS[workload](seed, workdir)
    return workdir, _steps(workload, files, workdir), facts


def _enough(walls, started, seconds):
    """True once another sequence would end past ``seconds`` (and the minimum is met)."""
    elapsed = time.monotonic() - started
    return len(walls) >= MIN_SEQUENCES and elapsed + statistics.median(walls) > seconds


def run_untraced(workload, seed, seconds, deadline):
    workdir, steps, facts = _prepare(workload, seed)
    runner = Runner(workdir, facts, deadline)
    runner.version()  # warm-up: fills the bytecode cache, not timed
    setup, walls, rss, step_walls = [], [], [], {}
    started = time.monotonic()
    # One set-up sample before each sequence spreads them over the run,
    # so drifts in machine load hit setup_s and wall_s alike.
    while not walls or not _enough(walls, started, seconds):
        setup.append(runner.version())
        done = _run_sequence(runner, steps, lambda name: UNTRACED)
        walls.append(sum(d[1] for d in done))
        rss.append(max(d[2] for d in done))
        for name, wall, *_ in done:
            step_walls.setdefault(name, []).append(wall)
        if time.monotonic() > deadline:
            break
    while len(setup) < SETUP_MIN and time.monotonic() < deadline:
        setup.append(runner.version())
    metrics = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup),
    }
    summary = {
        "sequences": len(walls),
        "wall_s_each": walls,
        "step_wall_s_median": {k: statistics.median(v) for k, v in step_walls.items()},
        "setup_s_each": setup,
    }
    return runner, metrics, summary


def run_traced(workload, seed, seconds, deadline):
    workdir, steps, facts = _prepare(workload, seed)
    runner = Runner(workdir, facts, deadline)
    runner.version()  # warm-up, as in the untraced run
    plain, traced, per_seq = [], [], []
    missing, peak_steps = set(), set()
    started = time.monotonic()
    while True:
        done = _run_sequence(runner, steps, lambda name: UNTRACED)
        plain.append(sum(d[1] for d in done))
        wall, values, seq_missing, peak_steps = _traced_sequence(runner, steps)
        traced.append(wall)
        per_seq.append(values)
        missing |= seq_missing
        elapsed = time.monotonic() - started
        if elapsed + statistics.median(plain) + statistics.median(traced) > seconds:
            break
        if time.monotonic() > deadline:
            break

    values = {key: statistics.median(v.get(key, 0) for v in per_seq) for key in set().union(*per_seq)}
    values.update(_peak_pass(runner, steps, peak_steps))
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)

    def shares(prefix):
        wall = statistics.median(traced)
        return {k[len(prefix):]: round(v / wall, 4) for k, v in sorted(values.items()) if k.startswith(prefix)}

    summary = {
        "sequences": len(traced),
        "untraced_wall_s_each": plain,
        "traced_wall_s_each": traced,
        "layer_self_share": shares("self_s."),
        "layer_called_share": shares("called_s."),
        "targets_not_found": sorted(missing),
    }
    return runner, values, summary


# --------------------------------------------------------------------- main

def _spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_one(spec, workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_DEADLINE_S
    if trace:
        runner, values, summary = run_traced(workload, seed, seconds, deadline)
        wanted = spec["per_layer"]
    else:
        runner, values, summary = run_untraced(workload, seed, seconds, deadline)
        wanted = spec["end_to_end"]
    absent = sorted(m["name"] for m in wanted if m["name"] not in values)
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted
    }
    summary = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "fail_ratio": {"value": runner.failed / max(runner.attempted, 1), "unit": "ratio"},
        **summary,
        "zero_because_never_called": absent,
        "errors": runner.errors,
        "result_sha256": runner.result_sha256,
    }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    return summary, result


def main(argv=None):
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "detforge" / "cli.py").is_file():
        print(f"bench: no detforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workloads = names if args.workload == "all" else [args.workload]
    results = []
    for workload in workloads:
        summary, result = run_one(spec, workload, args.seed, args.seconds, args.trace)
        print(json.dumps(summary), flush=True)
        results.append((workload, result))
    if len(results) == 1:
        result = results[0][1]
    else:
        result = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{w}.{k}": v for w, r in results for k, v in r["metrics"].items()},
        }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
