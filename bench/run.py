"""tempred benchmark: build a workload from a seed, time the analysis, check it.

    python3 bench/run.py --workload git-3k --seed 1 --seconds 40 --trace 0

Run from the repository root. The workload is built under ``.bench_work/``
and removed afterwards. Repetitions run until ``--seconds`` have passed,
each in a fresh interpreter (``bench/worker.py``), with a fixed pure-Python
calibration loop before and after each one so that machine drift can be told
from a program change; nothing is normalized by it.

``--trace 0`` times the pipeline end to end with tracing off and reports the
``end_to_end`` metrics of ``BENCHMARK.json``; ``--trace 1`` drives each layer
through its public functions and reports the ``per_layer`` metrics.

Every repetition is checked: its summary must equal the one pinned in
``bench/reference.json`` for the seed (``git-3k`` is held to the
``bundle-3k`` summary; for an unpinned seed it is computed from the bundle),
and its JSON report must be byte-identical to the first repetition's. The
traced run also requires the layer-by-layer replay to reproduce the summary
and every count to repeat exactly. A repetition that fails a check or raises
counts as a failed operation.

The last line of stdout is the result: ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the record: the
environment, the calibration readings, every repetition and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("bundle-3k", "git-3k", "rewrites")
# A run must end within 180 s; no repetition starts that could pass this.
DEADLINE_S = 165.0
# Extra set-up-only interpreters per repetition: single set-up times vary by
# a third from spawn to spawn, so setup_s is a median over many.
SETUP_PROBES = 3


def calibrate_ms() -> float:
    """A fixed pure-Python loop; its time tracks the machine, not tempred."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return (time.perf_counter() - start) * 1000


def _git_output(*args: str) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.decode("utf-8", "replace").strip()


def environment(seed: int) -> dict:
    sources = hashlib.sha256()
    for path in sorted((SRC / "tempred").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            sources.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            sources.update(path.read_bytes())
    return {
        "seed": seed,
        "python": platform.python_version(),
        "git": _git_output("--version"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        # A checkout without .git must not report an enclosing repository's HEAD.
        "tempred_commit": _git_output("rev-parse", "HEAD") if (ROOT / ".git").exists() else None,
        "tempred_sources_sha256": sources.hexdigest(),
    }


def build(workload: str, seed: int, work: Path) -> tuple[dict, Path | None]:
    """Write the workload under ``work``; return the analysis config fields and,
    for ``git-3k``, the bundle its repository was written from."""
    from workloads import build_bundle, build_git, build_rewrites

    if workload == "bundle-3k":
        bundle = build_bundle(work / "bundle", seed)
        return {"source": str(bundle), "bundle": True, "output_format": "json",
                "trace_commits": True}, None
    if workload == "git-3k":
        bundle = build_bundle(work / "bundle", seed)
        repo = build_git(work / "repo", bundle)
        return {"source": str(repo), "output_format": "json"}, bundle
    bundle = build_rewrites(work / "bundle", seed)
    return {"source": str(bundle), "bundle": True, "output_format": "json"}, None


def expected_summary(workload: str, seed: int, bundle: Path | None) -> dict | None:
    """The summary every repetition must reproduce, or None if none is known."""
    pinned = json.loads(REFERENCE.read_text()).get(
        "bundle-3k" if workload == "git-3k" else workload, {})
    if str(seed) in pinned:
        return pinned[str(seed)]
    if bundle is None:
        return None
    from tempred.report import AnalysisConfig, run_analysis
    from worker import summary_of

    return summary_of(run_analysis(AnalysisConfig(source=str(bundle), bundle=True)))


def spawn_worker(mode: str, fields: dict, timeout: float) -> dict:
    from workloads import git_env

    env = {**git_env(), "PYTHONPATH": str(SRC)}
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    # Its own session, so that a timeout also ends the git processes it started.
    with subprocess.Popen([sys.executable, str(HERE / "worker.py"), mode, json.dumps(fields)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        tail = stderr.decode("utf-8", "replace").strip().splitlines()[-3:]
        raise RuntimeError(f"worker exited with {proc.returncode}: {' | '.join(tail)}")
    result = json.loads(stdout)
    if mode != "trace":
        result["setup_s"] = result.pop("first_commit_at") - spawned_at
    return result


def check(rep: dict, first: dict | None, expected: dict | None, traced: bool) -> list[str]:
    """Why a repetition is wrong; empty when it is right."""
    problems = []
    if expected is not None and rep["summary"] != expected:
        problems.append("summary differs from the reference")
    if first is not None and rep["digest"] != first["digest"]:
        problems.append("JSON report differs from the first repetition's")
    if traced:
        if rep["layered_summary"] != rep["summary"]:
            problems.append("layer-by-layer replay gives another summary")
        if first is not None:
            changed = [k for k, v in rep["metrics"].items()
                       if isinstance(v, int) and v != first["metrics"][k]]
            if changed:
                problems.append(f"counts changed between repetitions: {changed}")
    return problems


def e2e_metrics(reps: list[dict]) -> dict[str, float]:
    # Latency quantiles come from every commit of every repetition pooled.
    latencies = [ms for r in reps for ms in r["latencies_ms"]]
    return {
        "commits_per_s": statistics.median(r["commits"] / r["wall_s"] for r in reps),
        "commit_ms_p50": statistics.median(latencies),
        "commit_ms_p90": statistics.quantiles(latencies, n=10)[8],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "setup_s": statistics.median(
            s for r in reps for s in [r["setup_s"], *r["setup_probes_s"]]),
    }


def layer_metrics(reps: list[dict]) -> dict[str, float]:
    return {k: statistics.median(r["metrics"][k] for r in reps) for k in reps[0]["metrics"]}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    began = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "tempred" / "__init__.py").is_file():
        print(f"no tempred sources at {SRC / 'tempred'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        start = time.perf_counter()
        fields, bundle = build(args.workload, args.seed, work)
        build_s = time.perf_counter() - start
        expected = expected_summary(args.workload, args.seed, bundle)

        mode = "trace" if args.trace else "e2e"
        reps: list[dict] = []
        failures: list[str] = []
        calib: list[float] = []
        attempted = failed = 0
        start = last = time.perf_counter()
        while attempted == 0 or time.perf_counter() - start < args.seconds:
            now = time.perf_counter()
            remaining = DEADLINE_S - (now - began)
            if attempted and remaining < 1.5 * (now - last):
                break
            last = now
            attempted += 1
            calib.append(calibrate_ms())
            try:
                probes = [spawn_worker("setup", fields, timeout=max(remaining, 1.0))["setup_s"]
                          for _ in range(SETUP_PROBES if mode == "e2e" else 0)]
                rep = spawn_worker(mode, fields, timeout=max(remaining, 1.0))
                rep["setup_probes_s"] = probes
            except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as exc:
                failures.append(f"repetition {attempted}: {exc}")
                failed += 1
                continue
            finally:
                calib.append(calibrate_ms())
            problems = check(rep, reps[0] if reps else None, expected, args.trace == 1)
            if problems:
                failures.append(f"repetition {attempted}: {'; '.join(problems)}")
                failed += 1
            reps.append(rep)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics: dict[str, float] = {}
    if reps:
        metrics = layer_metrics(reps) if args.trace else e2e_metrics(reps)
        if args.trace:
            metrics["bench.calib_ms"] = statistics.median(calib)
            metrics["bench.build_s"] = build_s
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": environment(args.seed),
        "build_s": build_s,
        "calib_ms": calib,
        "summary_checked": expected is not None,
        "failures": failures,
        "reps": [{k: v for k, v in r.items()
                  if k not in ("summary", "layered_summary", "latencies_ms")}
                 for r in reps],
        "metrics": metrics,
    }
    for failure in failures:
        print(failure, file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not failures and bool(reps),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
