"""Stage-by-stage benchmark of the lsm pipeline.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up generates the workload's synthetic scene with ``lsm synth`` from
``--seed``. The timed phase then runs ingest, sample, diagnose, train,
evaluate, map and report on that scene, each stage in its own process,
exactly as ``python3 -m lsm.cli STAGE --config FILE`` runs it. Each stage
runs the fixed number of times that workloads.py gives it, scaled by
``--seconds`` over the benchmark's ``run_seconds``. The runs are spread
over passes through the stages (see ``run_passes``), and a stage's wall
time is the fastest of its runs. After the first pass the run directory
is checked in full against the benchmark's own computations (checks.py);
every later pass must reproduce its tracked artifacts byte for byte.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` set-up and each stage run once under traced_stage.py
instead, and the line carries the per-layer metrics; trace files go to
perfbench/_traces. Metric names and units come from BENCHMARK.json. Run
directories live under perfbench/_work and are removed at the end.
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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
TRACES = os.path.join(HERE, "_traces")

TIMED_STAGES = ("ingest", "sample", "diagnose", "train", "evaluate", "map", "report")
# One BLAS thread: stable timings on a small shared machine, and no more
# threads than any machine has cores.
BLAS_THREADS = "1"
TRACKED = ("report/comparison.csv",)
# Set-up is timed as the fastest of this many synth processes; each one
# starts cold and writes the whole scene into an empty directory.
SETUP_RUNS = 3
# The program's stage timer may miss the outside wall by the stage
# process's start-up and manifest hashing plus this much (see README).
TIMER_MARGIN_S = 0.2
MB = 1e6


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def stage_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


class StageRunner:
    """Runs stage processes one at a time and times them from outside."""

    def __init__(self, work: str, trace_dir: str | None):
        self.env = stage_env()
        self.log = os.path.join(work, "stages.log")
        self.trace_dir = trace_dir

    def run(self, stage: str, config: str) -> dict:
        if self.trace_dir is None:
            argv = [sys.executable, "-m", "lsm.cli", stage, "--config", config]
            trace = None
        else:
            trace = os.path.join(self.trace_dir, f"{stage}.json")
            argv = [sys.executable, os.path.join(HERE, "traced_stage.py"), trace,
                    stage, "--config", config]
        with open(self.log, "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=log, stderr=log, env=self.env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"stage": stage, "code": proc.returncode, "wall_s": end - start,
                "rss_mb": usage.ru_maxrss * 1024 / MB, "trace": trace}


def write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)


def dir_bytes(path: str) -> int:
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


def read_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def declared_metrics(bench: dict, trace: bool) -> dict[str, str]:
    """Metric names and units from BENCHMARK.json, in its order."""
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def stage_runs(workload: dict, seconds: float, nominal: int) -> dict[str, int]:
    """Runs per stage: the workload's counts, which are set for the
    benchmark's run_seconds (``nominal``), scaled to ``seconds``; at least
    one each. Nothing measured enters, so the count never depends on the
    speed of the program."""
    return {stage: max(1, round(n * seconds / nominal))
            for stage, n in workload["runs"].items()}


def startup_seconds(runner: StageRunner) -> float:
    """Wall time of a stage process that imports the CLI and exits: the
    median of three such processes."""
    walls = []
    for _ in range(3):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import lsm.cli"], env=runner.env,
                       cwd=ROOT, check=True)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def run_passes(runner: StageRunner, cfg_path: str, out: str, runs: dict[str, int],
               after_pass) -> tuple[list[dict], int, list[str]]:
    """Run the seven stages in order, then further passes over the stages
    that have runs left, in the same order, until each stage has run
    ``runs[stage]`` times. A rerun reads the same inputs and rewrites
    identical outputs. Spreading a stage's runs over the whole run lets a
    slow phase of a shared host miss some of them. ``after_pass(n)`` is
    called after pass ``n`` and returns failures. Returns the stages, the
    number of stage processes started and the failures."""
    import checks
    done = {stage: [] for stage in TIMED_STAGES}
    started, failures = 0, []
    manifest = os.path.join(out, "run_manifest.json")
    for n in range(1, max(runs.values()) + 1):
        for stage in TIMED_STAGES:
            if len(done[stage]) >= runs[stage]:
                continue
            res = runner.run(stage, cfg_path)
            started += 1
            if res["code"] != 0:
                return [], started, [f"stage {stage} exited {res['code']}; see {runner.log}"]
            res["manifest_s"] = checks.read_json(manifest)["stages"][stage]["wall_clock_s"]
            done[stage].append(res)
        failures += after_pass(n)
    stages = [dict(done[s][-1], runs=done[s], wall_s=min(r["wall_s"] for r in done[s]),
                   rss_mb=max(r["rss_mb"] for r in done[s])) for s in TIMED_STAGES]
    return stages, started, failures


def end_to_end(out: str, stages: list[dict], cfg: dict) -> dict:
    """End-to-end metrics of the timed stages; setup_s is added by the caller."""
    import checks
    by = {s["stage"]: s for s in stages}
    n_train = sum(1 for line in open(os.path.join(out, "sample", "samples.csv"))
                  if line.rstrip().endswith(",train"))
    epochs = sum(len(checks.read_json(os.path.join(out, "train", c + ".json"))
                     ["history"]["train_loss"]) for c in checks.CELLS)
    cell = f"{cfg['model']}_{cfg['representation']}"
    scored = checks.read_json(os.path.join(out, "map", cell, "breaks.json"))["scored_cells"]
    return {
        "pipeline_s": sum(s["wall_s"] for s in stages),
        "data_s": sum(by[s]["wall_s"] for s in ("ingest", "sample", "diagnose")),
        "train_samples_per_s": n_train * epochs / by["train"]["wall_s"],
        "evaluate_s": by["evaluate"]["wall_s"],
        "map_cells_per_s": scored / by["map"]["wall_s"],
        "peak_rss_mb": max(s["rss_mb"] for s in stages),
        "out_dir_mb": dir_bytes(out) / MB,
    }


def tracked_digests(out: str, cfg: dict) -> dict:
    import checks
    cell = f"{cfg['model']}_{cfg['representation']}"
    rels = list(TRACKED) + [f"map/{cell}/scores.asc", f"map/{cell}/classes.asc"]
    rels += [f"train/{c}.bin" for c in checks.CELLS]
    return {rel: checks.sha256_file(os.path.join(out, rel)) for rel in rels}


def timer_failures(out: str, stages: list[dict], startup_s: float) -> list[str]:
    """The program's own stage timer must fit inside the outside wall of
    every run. For each stage the smallest difference over its runs must
    stay within process start-up, plus the manifest's hashing of the
    stage's inputs and outputs (timed here on the same files), plus
    TIMER_MARGIN_S."""
    import checks
    manifest = checks.read_json(os.path.join(out, "run_manifest.json"))["stages"]
    failures = []
    for s in stages:
        entry = manifest[s["stage"]]
        start = time.perf_counter()
        for rel in list(entry["inputs"]) + list(entry["outputs"]):
            path = rel if os.path.isabs(rel) else os.path.join(out, rel)
            checks.sha256_file(path)
        hash_s = time.perf_counter() - start
        gaps = [r["wall_s"] - r["manifest_s"] for r in s["runs"]]
        allowed = startup_s + hash_s + TIMER_MARGIN_S
        if min(gaps) < -0.001 or min(gaps) > allowed:
            failures.append(f"timer {s['stage']}: outside wall minus manifest "
                            f"{[round(g, 3) for g in gaps]} s, not within [0, {allowed:.3f}]")
        s["timer_excess_s"] = min(gaps) - startup_s - hash_s
    return failures


def with_units(values: dict[str, float], declared: dict[str, str]) -> dict:
    """The result's metrics, in BENCHMARK.json's order; every computed
    name must be declared there and every declared name computed."""
    if set(values) != set(declared):
        missing = sorted(set(declared) - set(values))
        extra = sorted(set(values) - set(declared))
        raise SystemExit(f"run.py: metrics disagree with BENCHMARK.json: "
                         f"not computed {missing}, not declared {extra}")
    return {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lsm", "cli.py")):
        print(f"run.py: the lsm sources are missing under {SRC}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception: the running stage is killed and
    # waited for, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = os.path.join(WORK, f"{tag}-p{os.getpid()}")
    os.makedirs(work)
    trace_dir = os.path.join(TRACES, tag) if args.trace else None
    if trace_dir:
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
    try:
        return _run(args, workloads, work, trace_dir, tag)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, workloads, work: str, trace_dir: str | None, tag: str) -> int:
    bench = read_benchmark()
    runner = StageRunner(work, trace_dir)
    workload = workloads.WORKLOADS[args.workload]

    # -- set-up: the generated inputs, timed from this process's start --
    scene_cfg = os.path.join(work, "scene_config.json")
    write_json(scene_cfg, workloads.scene_config(args.workload, args.seed, work))
    scene_dir = os.path.join(work, "scene")
    before_synth = process_age()
    synths = []
    for _ in range(1 if trace_dir else SETUP_RUNS):
        shutil.rmtree(scene_dir, ignore_errors=True)
        synths.append(runner.run("synth", scene_cfg))
        if synths[-1]["code"] != 0:
            print(f"run.py: synth failed, see {runner.log}", file=sys.stderr)
            return 1
    setup_s = before_synth + min(s["wall_s"] for s in synths)

    sys.path.insert(0, SRC)
    import checks
    startup_s = startup_seconds(runner)
    out = os.path.join(work, "run")
    cfg = workloads.stage_config(args.workload, scene_dir, out)
    cfg_path = os.path.join(work, "stages.json")
    write_json(cfg_path, cfg)
    if trace_dir:
        runs = {stage: 1 for stage in TIMED_STAGES}
    else:
        runs = stage_runs(workload, args.seconds, bench["run_seconds"])

    digests = {}

    def after_pass(n: int) -> list[str]:
        """Pass 1 is checked in full; later passes must reproduce it."""
        now = tracked_digests(out, cfg)
        if n == 1:
            digests.update(now)
            return checks.run_checks(checks.RunView(out, scene_dir, cfg),
                                     workload["matrix_checks"])
        changed = sorted(k for k in now if now[k] != digests[k])
        return [f"pass {n} differs from pass 1 at {', '.join(changed)}"] if changed else []

    stages, attempted, failures = run_passes(runner, cfg_path, out, runs, after_pass)
    failed = 0 if stages else 1
    if failed:
        print("\n".join(f"check failed: {msg}" for msg in failures), file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 0
    failures += timer_failures(out, stages, startup_s)

    if trace_dir is None:
        values = dict(setup_s=setup_s, **end_to_end(out, stages, cfg))
        metrics = with_units(values, declared_metrics(bench, trace=False))
    else:
        import perlayer
        values = perlayer.metrics(stages, synths[0]["trace"])
        metrics = with_units(values, declared_metrics(bench, trace=True))
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "startup_s": startup_s, "setup_walls": [s["wall_s"] for s in synths],
               "failures": failures,
               "stage_walls": {s["stage"]: [round(r["wall_s"], 4) for r in s["runs"]]
                               for s in stages},
               "timer_excess_s": {s["stage"]: s["timer_excess_s"] for s in stages},
               "digests": digests}
    os.makedirs(os.path.join(HERE, "_results"), exist_ok=True)
    write_json(os.path.join(HERE, "_results", f"{tag}.json"),
               dict(summary, metrics=metrics))
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
