"""torus-pursuit benchmark: run one workload of CLI invocations and report.

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`. Every invocation is a fresh `python -m torus_pursuit.cli` child that
inherits this process's environment (no BLAS variables are set here), run
one at a time until `--seconds` have passed. Every output is checked, and the
outputs of one run's iterations must be byte-identical.

With `--trace 0` the last stdout line is a JSON object carrying the
end-to-end metrics. With `--trace 1` the run alternates untraced iterations
with traced ones (see tracer.py) and reports the per-layer metrics, the
unattributed share of the traced wall time and the tracing overhead. Lines
before it give the environment, the output digest and the metric names the
README uses per workload. Scratch files go to `.perfbench/<workload>/`.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import CheckError, checkpoint_files, digest
from workloads import WORKLOADS, Call, Workload

CALL_TIMEOUT_S = 120.0
PROBE = ("import sys, torus_pursuit.cli; from torus_pursuit.config import load_config; "
         "load_config(sys.argv[1])")


@dataclass
class Invocation:
    label: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    ok: bool
    error: str = ""
    steps: int = 0
    out_bytes: int = 0
    checkpoint_bytes: int = 0
    spans: Path | None = None


@dataclass
class Iteration:
    traced: bool
    calls: list[Invocation] = field(default_factory=list)
    digest: str = ""

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.calls)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.calls)

    def rate(self, *labels: str) -> float:
        chosen = [c for c in self.calls if c.label in labels]
        wall = sum(c.wall_s for c in chosen)
        return sum(c.steps for c in chosen) / wall if wall else 0.0


class Runner:
    """Starts one child at a time and keeps the attempted/failed tally."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def spawn(self, label: str, argv: list[str]) -> Invocation:
        """Run argv in the work directory; wall, CPU and peak RSS of the child."""
        self.attempted += 1
        log = self.work / "logs" / f"{self.attempted:04d}-{label}"
        log.parent.mkdir(exist_ok=True)
        with open(f"{log}.out", "wb") as out, open(f"{log}.err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        inv = Invocation(label, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                         ok=proc.returncode == 0)
        if not inv.ok:
            tail = Path(f"{log}.err").read_text(errors="replace").strip().splitlines()[-1:]
            reason = "timed out" if wall >= CALL_TIMEOUT_S else f"exit {proc.returncode}"
            self.fail(inv, f"{label}: {reason} {' '.join(tail)}")
        return inv

    def fail(self, inv: Invocation, message: str) -> None:
        inv.ok = False
        self.failed += 1
        inv.error = message
        self.errors.append(message)

    def call(self, call: Call, traced: bool, tag: str) -> tuple[Invocation, list[Path]]:
        out = self.work / call.out
        shutil.rmtree(out, ignore_errors=True)
        args = call.args(self.work)
        if traced:
            spans = self.work / f"spans-{tag}.npz"
            argv = [sys.executable, str(self.root / "perfbench" / "tracer.py"), str(spans), *args]
        else:
            spans = None
            argv = [sys.executable, "-m", "torus_pursuit.cli", *args]
        inv = self.spawn(call.label, argv)
        inv.spans = spans
        if not inv.ok:
            return inv, []
        try:
            result = call.check(self.work)
        except CheckError as exc:
            self.fail(inv, f"{call.label}: output check failed: {exc}")
            return inv, []
        inv.steps = result.steps
        inv.out_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        inv.checkpoint_bytes = sum(p.stat().st_size for p in checkpoint_files(out, "checkpoint"))
        return inv, result.digest_files


def environment_metadata(root: Path) -> dict:
    """Where the numbers came from: CPUs, versions, BLAS and its thread count."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "libscipy_openblas*"))):
        try:
            get = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        threads = int(get())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "openblas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_sha": sha,
    }


def set_up(runner: Runner, wl: Workload) -> list[float]:
    """Untimed preparation, repeated; returns the wall time of each repetition."""
    times = []
    fixture_digests = set()
    for k in range(wl.setup_repeats):
        probe = runner.spawn("setup", [sys.executable, "-c", PROBE, next(iter(wl.configs))])
        total = probe.wall_s
        if wl.fixture is not None:
            fixture = wl.fixture(k)
            inv, files = runner.call(fixture, traced=False, tag=fixture.out)
            total += inv.wall_s
            if inv.ok:
                # config.json names the output directory, which differs here
                kept = [f for f in files if f.name != "config.json"]
                fixture_digests.add(digest(runner.work / fixture.out, kept))
                if len(fixture_digests) > 1:
                    runner.fail(inv, "fixture: outputs differ between repetitions")
            if not inv.ok:
                break
        if probe.ok:
            times.append(total)
    return times


def run_iteration(runner: Runner, wl: Workload, traced: bool, index: int) -> Iteration:
    it = Iteration(traced)
    files: list[Path] = []
    for j, call in enumerate(wl.calls):
        inv, digest_files = runner.call(call, traced, tag=f"{index}-{j}")
        it.calls.append(inv)
        if not inv.ok:
            break
        files += digest_files
    if it.ok:
        it.digest = digest(runner.work, files)
    return it


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(iters: list[Iteration], setups: list[float]) -> dict[str, tuple[float, str]]:
    # The geometric mean over the stepping invocations weighs every eval leg
    # alike, so a seed's episode lengths cannot shift the greedy/pincer mix.
    def steps_per_s(it: Iteration) -> float:
        rates = [c.steps / c.wall_s for c in it.calls if c.steps]
        return statistics.geometric_mean(rates) if rates else 0.0

    return {
        "setup_s": (median(setups), "s"),
        "iteration_s": (median([it.wall_s for it in iters]), "s"),
        "env_steps_per_s": (median([steps_per_s(it) for it in iters]), "1/s"),
        "output_mb": (median([sum(c.out_bytes for c in it.calls) / 1e6 for it in iters]), "MB"),
        "peak_rss_mb": (median([max(c.rss_mb for c in it.calls) for it in iters]), "MB"),
    }


def named_metrics(wl: Workload, iters: list[Iteration], e2e: dict,
                  attempted: int, failed: int) -> dict[str, tuple[float, str]]:
    """The workload's metrics under the names README.md and the roadmap use."""
    def wall(label: str) -> float:
        return median([c.wall_s for it in iters for c in it.calls if c.label == label])

    def checkpoint_mb() -> tuple[float, str]:
        return median([c.checkpoint_bytes / 1e6 for it in iters for c in it.calls]), "MB"

    m = {"setup_s": e2e["setup_s"], "peak_rss_mb": e2e["peak_rss_mb"]}
    if wl.name in ("train-small", "train-paper"):
        m["train_env_steps_per_s"] = (median([it.rate("train") for it in iters]), "1/s")
    if wl.name == "train-small":
        m["checkpoint_mb"] = checkpoint_mb()
    if wl.name == "eval-sweep":
        m["eval_greedy_steps_per_s"] = (median([it.rate("greedy") for it in iters]), "1/s")
        m["eval_pincer_steps_per_s"] = (
            median([it.rate("pincer", "pincer-n5") for it in iters]), "1/s")
        m["analyze_s"] = (wall("analyze"), "s")
    if wl.name == "checkpoint-resume":
        m["resume_s"] = (wall("resume"), "s")
        m["checkpoint_mb"] = checkpoint_mb()
    m["failed_share"] = (failed / attempted if attempted else 0.0, "share")
    return m


def traced_metrics(iters: list[Iteration]) -> dict[str, tuple[float, str]]:
    from tracer import SpanSummary, layer_metrics

    traced = [it for it in iters if it.traced]
    plain = [it for it in iters if not it.traced]
    summary = SpanSummary()
    summary.iterations = len(traced)
    traced_wall_ns = 0.0
    for it in traced:
        for c in it.calls:
            summary.add_file(c.spans)
            traced_wall_ns += c.wall_s * 1e9
    m = layer_metrics(summary)
    m["trace.unattributed_share"] = (1.0 - sum(summary.root_self_ns) / traced_wall_ns, "share")
    untraced_s = median([it.wall_s for it in plain])
    m["trace.overhead_share"] = (median([it.wall_s for it in traced]) / untraced_s - 1.0, "share")
    calls = [c for it in plain for c in it.calls]
    m["process.cpu_per_wall"] = (sum(c.cpu_s for c in calls) / sum(c.wall_s for c in calls),
                                 "share")
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "torus_pursuit" / "cli.py").is_file():
        print(f"error: no torus_pursuit sources under {root / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    work = root / ".perfbench" / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for name, doc in wl.configs.items():
        (work / name).write_text(json.dumps(doc, indent=2) + "\n")

    runner = Runner(root, work)
    setups = set_up(runner, wl)
    if not setups:
        print("error: set-up failed: " + "; ".join(runner.errors), file=sys.stderr)
        return 2

    iters: list[Iteration] = []
    t0 = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(iters) % 2 == 1
        iters.append(run_iteration(runner, wl, traced, len(iters)))
        if not iters[-1].ok:
            break
        have_both = not args.trace or len(iters) >= 2
        if time.perf_counter() - t0 >= args.seconds and have_both:
            break

    good = [it for it in iters if it.ok]
    reference = good[0].digest if good else ""
    for it in good:
        if it.digest != reference:
            runner.fail(it.calls[-1], f"iteration outputs differ: digest {it.digest[:12]} "
                        f"!= {reference[:12]}")
    good = [it for it in iters if it.ok]
    plain = [it for it in good if not it.traced]
    correct = runner.failed == 0 and bool(plain) and (not args.trace or len(good) > len(plain))

    meta = environment_metadata(root)
    e2e = end_to_end(plain, setups)
    named = named_metrics(wl, plain, e2e, runner.attempted, runner.failed)
    metrics = traced_metrics(good) if args.trace and correct else e2e

    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace} iterations={len(iters)} "
          f"invocations={runner.attempted} failed={runner.failed}")
    print("environment " + json.dumps(meta))
    print(f"output digest {reference}")
    for message in runner.errors:
        print(f"FAILED {message}")
    for name, (value, unit) in {**named, **metrics}.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    summary = dict(result, workload=wl.name, seed=args.seed, trace=args.trace, environment=meta,
                   digest=reference, named={k: v for k, (v, _) in named.items()},
                   setup_walls=setups, iterations=[
                       {"traced": it.traced, "digest": it.digest,
                        "calls": [vars(c) | {"spans": str(c.spans)} for c in it.calls]}
                       for it in iters])
    (work / "result.json").write_text(json.dumps(summary, indent=2, default=str) + "\n")
    fixtures = [wl.fixture(k) for k in range(wl.setup_repeats)] if wl.fixture else []
    for call in wl.calls + fixtures:
        shutil.rmtree(work / call.out, ignore_errors=True)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
