"""Benchmark of the ``sponges`` CLI.

    python3 bench/run.py --workload cm_model6 --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Run from anywhere; the program is taken from ``src/`` next to this
directory.  One process drives the load and runs at most one
``python -m sponges`` child at a time (closed loop, one client).

Set-up builds the workload's input documents from ``--seed`` several times
and reports the median as ``setup_s``.  Then passes run back to back until
``--seconds`` have gone by (at least one); a pass runs every command of the
workload in order, each in a fresh process.

--trace 0  end-to-end metrics: median pass wall and CPU seconds (from
           os.wait4), median peak RSS of the pass's largest child, and
           set-up seconds.
--trace 1  per-layer metrics: alternating untraced and traced in-process
           passes through ``sponges.cli.cli_dispatch``; see spans.py.

Every command's exit code and report is checked (workloads.py).  The last
line of stdout is one JSON object with ``correct``, ``attempted`` (commands
run), ``failed`` (commands whose exit code or report was wrong, or that
raised) and ``metrics``; the error rate is failed / attempted.  Lines before
it give the same figures for people, with the environment stamp.  A record
with the stamp, every per-pass value and the spans is written under
``.bench_work/records/``; bench/compare.py compares two records.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, CheckError, Workload, check_step

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 9

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def environment_stamp() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            commit = out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "loadavg_1m": os.getloadavg()[0],
        "commit": commit,
    }


# ---------------------------------------------------------------------------
# running commands


@dataclass
class Outcome:
    rc: int
    stdout: str
    stderr: str


@dataclass
class ChildUsage:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0


class Children:
    """Runs ``python -m sponges`` children one at a time in the work dir."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        # Fixed string hashing: set iteration order, and so the work done,
        # then depends only on the seeded inputs.
        self.env["PYTHONHASHSEED"] = "0"
        self.usage = ChildUsage()

    def __call__(self, argv: list[str]) -> Outcome:
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        for path in (out_path, err_path):  # new files: see workloads.write_json
            path.unlink(missing_ok=True)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "sponges", *argv], cwd=self.work,
                                    stdout=out, stderr=err, env=self.env)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
            wall = time.perf_counter() - start
        self.usage.wall_s += wall
        self.usage.cpu_s += usage.ru_utime + usage.ru_stime
        self.usage.peak_rss_mb = max(self.usage.peak_rss_mb, usage.ru_maxrss / 1024)
        return Outcome(proc.returncode, out_path.read_text(encoding="utf-8"),
                       err_path.read_text(encoding="utf-8", errors="replace"))

    def gen(self, args: list[str]) -> str:
        result = self(["gen", *args])
        if result.rc != 0:
            raise CheckError(f"sponges gen {' '.join(args)} exited {result.rc}: "
                               f"{result.stderr.strip()[-500:]}")
        return result.stdout


class InProcess:
    """Runs commands through ``sponges.cli.cli_dispatch`` in this process."""

    def __init__(self, work: Path):
        self.work = work
        self.wall_ns = 0

    def __call__(self, argv: list[str]) -> Outcome:
        from sponges import cli

        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.work)
        start = time.perf_counter_ns()
        try:
            rc = cli.cli_dispatch(argv, stdout=out, stderr=err)
        except Exception as exc:  # a traceback is a failed command, not a crash
            rc = -1
            err.write(f"Traceback (most recent call last):\n{type(exc).__name__}: {exc}\n")
        finally:
            self.wall_ns += time.perf_counter_ns() - start
            os.chdir(cwd)
        return Outcome(rc, out.getvalue(), err.getvalue())


# ---------------------------------------------------------------------------
# passes


@dataclass
class PassResult:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    checkpoint_bytes: int = 0
    resumed_records: int = 0
    resumed_served: int = 0


def _lines(path: Path) -> int:
    if not path.exists():
        return 0
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def run_pass(workload: Workload, work: Path, seed: int, execute) -> PassResult:
    for name in workload.scratch_files:
        (work / name).unlink(missing_ok=True)
    result = PassResult()
    earlier: dict = {}
    for step in workload.steps:
        checkpoint = None
        if "--checkpoint" in step.argv:
            checkpoint = work / step.argv[step.argv.index("--checkpoint") + 1]
        before = _lines(checkpoint) if checkpoint else 0
        outcome = execute(step.argv)
        result.attempted += 1
        if "Traceback (most recent call last)" in outcome.stderr:
            reason = f"{step.name}: traceback: {outcome.stderr.strip().splitlines()[-1]}"
        else:
            reason = check_step(step, outcome.rc, outcome.stdout, seed, earlier)
        if reason:
            result.failures.append(reason)
        if checkpoint and before and step.name in earlier:
            total = earlier[step.name]["summary"]["total"]
            result.resumed_records += total
            result.resumed_served += total - (_lines(checkpoint) - before)
    result.checkpoint_bytes = sum(
        (work / name).stat().st_size for name in workload.scratch_files
        if (work / name).exists())
    return result


def set_up(workload: Workload, work: Path, seed: int, reps: int) -> list[float]:
    children = Children(work)
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        workload.setup(children.gen, work, seed)
        times.append(time.perf_counter() - start)
    return times


def measure_end_to_end(workload, work, seed, seconds) -> tuple[dict, list[PassResult], dict]:
    passes, usages = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        children = Children(work)
        passes.append(run_pass(workload, work, seed, children))
        usages.append(children.usage)
    raw = {key: [getattr(u, key) for u in usages] for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    return {key: statistics.median(v) for key, v in raw.items()}, passes, raw


def measure_layers(workload, work, seed, seconds) -> tuple[dict, list[PassResult], dict]:
    from spans import Tracer

    sys.path.insert(0, str(SRC))
    tracer = Tracer()
    per_pass: list[dict] = []
    passes = []
    start = time.perf_counter()
    while not per_pass or time.perf_counter() - start < seconds:
        plain = InProcess(work)
        passes.append(run_pass(workload, work, seed, plain))
        traced = InProcess(work)
        tracer.pass_id = len(per_pass)
        first_span = len(tracer.spans)
        with tracer.installed():
            result = run_pass(workload, work, seed, traced)
        passes.append(result)
        per_pass.append(layer_metrics(tracer, tracer.spans[first_span:], traced.wall_ns,
                                      plain.wall_ns, result))
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    return metrics, passes, {"spans": tracer.spans, "per_pass": per_pass}


def layer_metrics(tracer, spans, wall_ns: int, plain_ns: int, result: PassResult) -> dict:
    from spans import MODULES, SPAN_NAMES, count_under, reduce_spans

    reduced = reduce_spans(spans, wall_ns)
    if sum(reduced["module_self_ns"].values()) + reduced["outside_ns"] != wall_ns:
        result.failures.append("trace: module self times do not add up to the pass wall time")
    counters = tracer.counters[tracer.pass_id]
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = reduced["calls"].get(name, 0)
        out[f"{name}.self_s"] = reduced["self_ns"].get(name, 0) / 1e9
    for module in MODULES:
        out[f"{module}.self_s"] = reduced["module_self_ns"].get(module, 0) / 1e9
    cells = counters["snf_cells"]
    out["exactalg.snf_nnz"] = counters["snf_nnz"]
    out["exactalg.snf_cells"] = cells
    out["exactalg.snf_density"] = counters["snf_nnz"] / cells if cells else 0.0
    diagonal = counters["snf_diagonal"]
    out["exactalg.unit_pivot_share"] = counters["snf_units"] / diagonal if diagonal else 0.0
    _, from_cohomology = count_under(spans, "exactalg.smith_diagonal", "complexes.cohomology")
    out["exactalg.smith_diagonal.from_cohomology.self_s"] = from_cohomology / 1e9
    links, _ = count_under(spans, "complexes.homology", "poset.check_cohen_macaulay")
    cm_calls = reduced["calls"].get("poset.check_cohen_macaulay", 0)
    out["poset.cm_links_tested"] = links / cm_calls if cm_calls else 0.0
    out["generators.cubic_classes"] = counters["cubic_classes"]
    out["search.checkpoint_bytes"] = result.checkpoint_bytes
    out["search.resume_hit_share"] = (
        result.resumed_served / result.resumed_records if result.resumed_records else 0.0)
    out["trace.wall_s"] = wall_ns / 1e9
    out["trace.outside_s"] = reduced["outside_ns"] / 1e9
    out["trace.overhead_s"] = (wall_ns - plain_ns) / 1e9
    return out


# ---------------------------------------------------------------------------
# reporting


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup_times = set_up(workload, work, seed, 1 if trace else SETUP_REPS)
    measure = measure_layers if trace else measure_end_to_end
    values, passes, raw = measure(workload, work, seed, seconds)
    if not trace:
        values["setup_s"] = statistics.median(setup_times)
        raw["setup_s"] = setup_times
    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)
    return {
        "workload": name,
        "seed": seed,
        "seed_affects_inputs": name != "scan_trivalent",
        "trace": int(trace),
        "passes": len(passes),
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": values,
        "raw": raw,
    }


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_share", "_density")):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def print_summary(rec: dict) -> None:
    passes = rec["passes"] if not rec["trace"] else rec["passes"] // 2
    kind = ("traced in-process " if rec["trace"] else "") + ("pass" if passes == 1 else "passes")
    seed_note = "" if rec["seed_affects_inputs"] else " (the seed does not affect its inputs)"
    print(f"{rec['workload']} seed {rec['seed']}{seed_note}: {passes} {kind}, "
          f"{rec['attempted']} commands, {rec['failed']} failed")
    for metric, value in rec["metrics"].items():
        note = ""
        if metric == "setup_s":
            note = f"  (median of {SETUP_REPS} set-ups)"
        elif metric in END_TO_END_UNITS:
            note = f"  (median of {passes} {'pass' if passes == 1 else 'passes'})"
        print(f"  {metric:<52} {value:>14.6g} {unit_of(metric)}{note}")
    rate = rec["failed"] / rec["attempted"]
    print(f"  {'error_rate':<52} {rate:>14.6g} ratio  ({rec['failed']}/{rec['attempted']} commands)")
    for failure in rec["failures"]:
        print(f"  FAILED {failure}")


def write_record(stamp: dict, rec: dict) -> Path:
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    stem = f"{rec['workload']}-seed{rec['seed']}-trace{rec['trace']}"
    spans = rec["raw"].pop("spans", None)
    if spans is not None:
        with open(records / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    path = records / f"{stem}.json"
    path.write_text(json.dumps({"stamp": stamp, **rec}, indent=1), encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sponges" / "__init__.py").is_file():
        print(f"error: the sponges package is missing under {SRC}", file=sys.stderr)
        return 2
    stamp = environment_stamp()
    print(f"# python {stamp['python']}, nproc {stamp['nproc']}, {stamp['platform']}, "
          f"load {stamp['loadavg_1m']:.2f}, commit {stamp['commit']}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        try:
            rec = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except CheckError as err:
            print(f"error: {name} set-up failed: {err}", file=sys.stderr)
            return 1
        print_summary(rec)
        print(f"  record: {write_record(stamp, rec).relative_to(ROOT)}")
        records.append(rec)
    metrics = {}
    for rec in records:
        prefix = "" if len(records) == 1 else f"{rec['workload']}."
        for metric, value in rec["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": unit_of(metric)}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
