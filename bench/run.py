"""Benchmark of the isorbit CLI, end to end and layer by layer.

Usage (from the root of a checkout):

    python3 bench/run.py --workload crit8|chords4|scatter4 \
        [--seed N] [--seconds S] [--trace 0|1]

--trace 0 runs the real CLI (``isorbit.cli.main``, called by cli_child.py
as the installed script calls it, with src/ on the path) as child
processes in a closed loop with one client: one child at a time, each
round a full run and then the same command with the domain replaced by
{"points": []}. It reports, in calibrated seconds (see
clock.py), the median full run (wall_s) and the median empty-domain run
(setup_s), the label rate points / (wall_s - setup_s) and the children's
median peak RSS.

--trace 1 instead runs rounds of trace_child.py, which imports the CLI in a
fresh interpreter and runs it once plain and once with every layer wrapped,
and reports the median per-layer times and the layers' counts.

--seed picks the scatter4 point set (crit8 and chords4 are fixed boxes).
Every output is checked against the closed forms in workloads.py. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
All samples are also written to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from clock import ChildRun, pin_to_one_cpu, run_child
from workloads import WORKLOADS, CheckError, Workload, check_empty_output, check_output

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Layers timed by the traced run: metric "<layer>_s" is the summed duration
# of that layer's spans.
LAYERS = ["cli.parse", "pipeline.stage1", "permgroup.closure", "gf2.basis",
          "rotation.assemble", "lattice.basis", "quotient.pinv", "quotient.reduce",
          "labeling.merge", "labeling.finalize", "cli.render"]
COUNTS = ["points", "permgroup.order", "gf2.dim", "rotation.order", "lattice.rank",
          "quotient.reps", "labeling.classes", "cli.output_bytes"]
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "label_points_per_s": "1/s",
                    "peak_rss_mb": "MB"}
PER_LAYER_TIMES = (["cli.import_s"] + [f"{layer}_s" for layer in LAYERS]
                   + ["pipeline.stage1_self_s", "cli.self_s", "trace.self_sum_s",
                      "trace.overhead_s"])
CHILD_TIMEOUT_S = 170


class Inputs:
    """Input files of one workload, written under the run's work directory."""

    def __init__(self, w: Workload, seed: int, work: Path):
        self.w, self.work = w, work
        self.points = w.points(seed)
        self.gens = work / "gens.json"
        self.gens.write_text(json.dumps(w.gens_doc()), encoding="utf-8")
        self.empty = work / "empty.json"
        self.empty.write_text('{"points": []}\n', encoding="utf-8")
        self.domain = None
        if w.box is None:
            self.domain = work / "points.json"
            self.domain.write_text(
                json.dumps({"points": [list(p) for p in self.points]}), encoding="utf-8")

    def cli_args(self, empty: bool, output: Path) -> list[str]:
        if empty:
            domain = ["--domain", str(self.empty)]
        elif self.domain is not None:
            domain = ["--domain", str(self.domain)]
        else:
            domain = ["--box", self.w.box]
        return ["--gens", str(self.gens), *domain, "--format", self.w.format,
                "--output", str(output)]


class OutputChecker:
    """Checks the first output of each kind in full, later ones by bytes."""

    def __init__(self, w: Workload, points):
        self.w, self.points = w, points
        self.first: dict[bool, bytes] = {}
        self.classes = 0

    def check(self, empty: bool, data: bytes) -> None:
        first = self.first.get(empty)
        if first is not None:
            if data != first:
                raise CheckError(("empty-domain" if empty else "full")
                                 + " output differs from the run's first repetition")
            return
        if empty:
            check_empty_output(self.w, data, self.first[False])
        else:
            self.classes = check_output(self.w, self.points, data)
        self.first[empty] = data


def child_env() -> dict[str, str]:
    """The caller's environment with src/ first on the path and bytecode
    caching on, as for an installed package, whatever the caller set."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def warm_up(env: dict[str, str]) -> None:
    """Import the package once so every timed child finds its bytecode."""
    subprocess.run([sys.executable, "-c", "import isorbit.cli"], env=env, cwd=ROOT,
                   check=True, timeout=CHILD_TIMEOUT_S)


def end_to_end(inp: Inputs, env: dict[str, str], seconds: float) -> dict:
    checker = OutputChecker(inp.w, inp.points)
    samples: dict[bool, list[ChildRun]] = {False: [], True: []}
    peaks_mb: list[float] = []
    peak_file = inp.work / "peak_rss_kb"
    rounds = failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        rounds += 1
        for empty in (False, True):
            out = inp.work / ("empty.out" if empty else "full.out")
            out.unlink(missing_ok=True)
            peak_file.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(peak_file),
                    *inp.cli_args(empty, out)]
            r = run_child(argv, env, str(ROOT), inp.w.kernel, CHILD_TIMEOUT_S)
            if r.status != 0:
                failed += 1
                continue
            checker.check(empty, out.read_bytes())
            samples[empty].append(r)
            if not empty:
                peaks_mb.append(int(peak_file.read_text(encoding="ascii")) / 1024.0)
        if time.perf_counter() >= deadline:
            break
    full, setup = samples[False], samples[True]
    if not full or not setup:
        raise CheckError("every run of one kind failed")
    wall_s = statistics.median(r.calibrated_s for r in full)
    setup_s = statistics.median(r.calibrated_s for r in setup)
    raw_wall = statistics.median(r.raw_s for r in full)
    raw_setup = statistics.median(r.raw_s for r in setup)
    metrics = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "label_points_per_s": len(inp.points) / (wall_s - setup_s),
        "peak_rss_mb": statistics.median(peaks_mb),
    }
    raw = {"wall_s": raw_wall, "setup_s": raw_setup,
           "label_points_per_s": len(inp.points) / (raw_wall - raw_setup)}
    kernels = {
        "wall_s": statistics.median(k for r in full for k in r.kernels_s),
        "setup_s": statistics.median(k for r in setup for k in r.kernels_s),
    }
    return {
        "attempted": 2 * rounds, "failed": failed, "rounds": rounds,
        "classes": checker.classes, "metrics": metrics, "raw": raw, "kernels": kernels,
        "samples": {name: [{"calibrated_s": r.calibrated_s, "raw_s": r.raw_s,
                             "kernels_s": r.kernels_s} for r in runs]
                    for name, runs in (("full", full), ("setup", setup))},
        "peak_rss_mb": peaks_mb,
    }


def layer_values(data: dict, child: ChildRun) -> dict[str, float]:
    """Calibrated per-layer seconds of one traced round."""
    cal = child.calibrated_between
    spans = data["spans"]
    duration = [cal(start, end) for _, start, end, _ in spans]
    child_time = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += duration[i]
    total = dict.fromkeys(LAYERS + ["cli.run"], 0.0)
    own = dict.fromkeys(LAYERS + ["cli.run"], 0.0)
    for i, (layer, _, _, _) in enumerate(spans):
        total[layer] += duration[i]
        own[layer] += duration[i] - child_time[i]
    import_s = cal(*data["import"])
    run_s = {run["traced"]: cal(run["start"], run["end"]) for run in data["runs"]}
    values = {"cli.import_s": import_s}
    values.update({f"{layer}_s": total[layer] for layer in LAYERS})
    values["pipeline.stage1_self_s"] = own["pipeline.stage1"]
    values["cli.self_s"] = own["cli.run"]
    values["trace.self_sum_s"] = import_s + total["cli.run"]
    values["trace.overhead_s"] = run_s[True] - run_s[False]
    return values


def check_counts(inp: Inputs, counts: dict, checker: OutputChecker) -> None:
    facts = inp.w.facts
    expected = {"points": len(set(inp.points)), "lattice.rank": facts.rank,
                "rotation.order": facts.rotation_order,
                "labeling.classes": checker.classes,
                "cli.output_bytes": len(checker.first[False])}
    for name, value in expected.items():
        if name in counts and counts[name] != value:
            raise CheckError(f"traced count {name} = {counts[name]}, expected {value}")


def traced(inp: Inputs, env: dict[str, str], seconds: float) -> dict:
    checker = OutputChecker(inp.w, inp.points)
    rounds: list[dict[str, float]] = []
    attempted = failed = 0
    counts: dict | None = None
    absent: list[str] = []
    deadline = time.perf_counter() + seconds
    while True:
        outputs = {True: inp.work / "traced.out", False: inp.work / "plain.out"}
        for out in outputs.values():
            out.unlink(missing_ok=True)
        result = inp.work / "trace.json"
        result.unlink(missing_ok=True)
        request = inp.work / "request.json"
        request.write_text(json.dumps({
            "argv_traced": inp.cli_args(False, outputs[True]),
            "argv_untraced": inp.cli_args(False, outputs[False]),
            "traced_first": len(rounds) % 2 == 0,
            "result": str(result),
        }), encoding="utf-8")
        attempted += 2
        child = run_child([sys.executable, str(BENCH_DIR / "trace_child.py"), str(request)],
                          env, str(ROOT), inp.w.kernel, CHILD_TIMEOUT_S)
        if child.status != 0:
            failed += 2
        else:
            data = json.loads(result.read_text(encoding="utf-8"))
            ok = True
            for run in data["runs"]:
                if run["status"] != 0:
                    failed += 1
                    ok = False
                else:
                    checker.check(False, outputs[run["traced"]].read_bytes())
            if ok:
                if counts is None:
                    counts = data["counts"]
                    check_counts(inp, counts, checker)
                elif data["counts"] != counts:
                    raise CheckError("traced counts differ between rounds")
                rounds.append(layer_values(data, child))
                absent = data["absent"]
        if time.perf_counter() >= deadline:
            break
    if not rounds:
        raise CheckError("every traced round failed")
    metrics = {name: statistics.median(v[name] for v in rounds)
               for name in PER_LAYER_TIMES}
    metrics.update({name: counts.get(name, 0) for name in COUNTS})
    absent = sorted(set(absent) | {n for n in COUNTS if n not in counts})
    return {"attempted": attempted, "failed": failed, "rounds": len(rounds),
            "classes": checker.classes, "metrics": metrics, "absent": absent,
            "samples": rounds}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    return "s" if name in PER_LAYER_TIMES else "count"


def report(w: Workload, seed: int, cpu: int, res: dict) -> None:
    print(f"bench {w.name} seed={seed} cpu={cpu} rounds={res['rounds']} "
          f"attempted={res['attempted']} failed={res['failed']} classes={res['classes']}")
    for name, value in res["metrics"].items():
        line = f"  {name:24s} {value:14.6f} {unit_of(name)}"
        if name in res.get("raw", {}):
            line += f"   raw {res['raw'][name]:.6f}"
        if name in res.get("kernels", {}):
            line += (f"   {w.kernel.name} kernel median {res['kernels'][name] * 1e3:.4f} ms"
                     f" (nominal {w.kernel.nominal_s * 1e3:.4f} ms)")
        print(line)
    if res.get("absent"):
        print("  absent (reported as 0): " + ", ".join(res["absent"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1,
                        help="scatter4 point seed (default: 1)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measure for this long, then finish the round")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "isorbit" / "cli.py").is_file():
        print(f"bench: no isorbit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # A terminated benchmark must not leave a child stopped mid-slice:
    # SystemExit runs run_child's cleanup, which kills and reaps it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    w = WORKLOADS[args.workload]
    cpu = pin_to_one_cpu()
    work = BENCH_DIR / "_work" / f"{w.name}-{os.getpid()}"
    work.mkdir(parents=True)
    env = child_env()
    try:
        inp = Inputs(w, args.seed, work)
        warm_up(env)
        res = (traced if args.trace else end_to_end)(inp, env, args.seconds)
    except CheckError as e:
        print(f"bench: check failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    (results / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": w.name, "seed": args.seed, "cpu": cpu,
                    "seconds": args.seconds, **res}, indent=1), encoding="utf-8")
    report(w, args.seed, cpu, res)
    print(json.dumps({
        "correct": True, "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
