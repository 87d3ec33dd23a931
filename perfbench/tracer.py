"""Span tracer for the benchmark's traced runs.

Run as a program, it stands in for `python -m torus_pursuit.cli`:

    python3 perfbench/tracer.py SPANS.npz train --config cfg.json --out out

It imports the package, wraps the public functions and public methods of
every layer module, runs the CLI, and when the CLI returns writes every span
(name, start, end, parent) and the computed counters to SPANS.npz. Spans are
kept in memory until then. `geometry` and private helpers are not wrapped, so
their time counts inside their callers.

Imported as a module, it turns span files into per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = (
    "config", "cli", "environment", "evader", "pursuit", "nn", "ddpg", "training",
    "curriculum", "checkpoint", "evaluation", "trajectory", "metrics", "analysis",
)
PACKAGE = "torus_pursuit"


# -- counting hooks ------------------------------------------------------
# Each hook sees (counters, args, kwargs, result) of one traced call and adds
# computed counts. They read only public call signatures; a hook that no
# longer fits the code is counted in trace.hook_errors instead of failing.

def _mlp_weight_count(params) -> int:
    return sum(int(w.size) for w in params.weights)


def _rows(x) -> int:
    return int(x.shape[0]) if getattr(x, "ndim", 1) > 1 else 1


def _hook_forward(c, args, kwargs, result) -> None:
    # one multiply-add per weight per row
    c["nn.flops"] += 2 * _rows(args[1]) * _mlp_weight_count(args[0])


def _hook_backward(c, args, kwargs, result) -> None:
    # weight gradient and input gradient: two matmuls per layer
    c["nn.flops"] += 4 * _rows(args[2]) * _mlp_weight_count(args[0])


def _hook_sample(c, args, kwargs, result) -> None:
    c["ddpg.rows_sampled"] += int(args[1] if len(args) > 1 else kwargs["batch_size"])


def _hook_pincer(c, args, kwargs, result) -> None:
    k = args[1] if len(args) > 1 else kwargs.get("k", 1)
    c["pursuit.grid_cells"] += (2 * k + 1) ** (2 * len(args[0].pursuers))


def _hook_save_checkpoint(c, args, kwargs, result) -> None:
    path = Path(args[0])
    # the checkpoint and any sidecar sharing its stem
    c["checkpoint.bytes"] += sum(p.stat().st_size for p in path.parent.glob(path.stem + ".*"))
    c["checkpoint.transitions"] += sum(len(lr.buffer) for lr in args[2])


def _hook_run_episode(c, args, kwargs, result) -> None:
    c["training.env_steps"] += int(result[2])


def _name_pincer(args) -> str:
    return f"pursuit.pincer_selection.n{len(args[0].pursuers)}"


HOOKS = {
    "nn.forward": _hook_forward,
    "nn.backward": _hook_backward,
    "ddpg.ReplayBuffer.sample": _hook_sample,
    "pursuit.pincer_selection": _hook_pincer,
    "checkpoint.save_checkpoint": _hook_save_checkpoint,
    "training.run_episode": _hook_run_episode,
}
NAMERS = {"pursuit.pincer_selection": _name_pincer}


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.errors: Counter[str] = Counter()

    def name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return self._ids[name]

    def wrap(self, fn, span: str, layer: str):
        nid = self.name_id(span, layer)
        hook = HOOKS.get(span)
        namer = NAMERS.get(span)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, counters, errors, layer_of = self.stack, self.counters, self.errors, self.layer_of
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            this = nid
            if namer is not None:
                try:
                    this = self.name_id(namer(args), layer)
                except Exception:
                    counters["trace.hook_errors"] += 1
            idx = len(starts)
            parent = stack[-1] if stack else -1
            names.append(this)
            parents.append(parent)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                # count an exception once per layer boundary it crosses
                if parent < 0 or layer_of[names[parent]] != layer:
                    errors[layer] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                try:
                    hook(counters, args, kwargs, result)
                except Exception:
                    counters["trace.hook_errors"] += 1
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer module's public functions and methods in place.

        Modules bind each other's functions by name at import time, so every
        package module's globals are rebound to the wrappers as well.
        """
        modules = {
            name: mod for name, mod in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        }
        replaced = {}
        for modname, mod in modules.items():
            layer = modname.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != modname:
                    continue
                if inspect.isfunction(value):
                    replaced[id(value)] = self.wrap(value, f"{layer}.{attr}", layer)
                elif inspect.isclass(value):
                    for meth, fn in list(vars(value).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            span = f"{layer}.{value.__name__}.{meth}"
                            setattr(value, meth, self.wrap(fn, span, layer))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in replaced:
                    setattr(mod, attr, replaced[id(value)])

    def dump(self, path: str | Path, meta: dict) -> None:
        import numpy as np

        doc = dict(meta)
        doc.update(
            names=self.names,
            layer_of=self.layer_of,
            counters=dict(self.counters),
            errors={layer: self.errors.get(layer, 0) for layer in LAYERS},
        )
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            meta=np.array(json.dumps(doc)),
        )


def _traced_main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import torus_pursuit.cli as cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    rc = 1
    try:
        rc = cli.main(cli_args)
    finally:
        tracer.dump(spans_path, {"import_s": import_s, "returncode": rc})
    return rc


# -- aggregation (benchmark side) ----------------------------------------


class SpanSummary:
    """Per span name: calls, inclusive and self nanoseconds, summed over files."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.incl_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.layer: dict[str, str] = {}
        self.counters: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self.import_s: list[float] = []
        self.root_self_ns: list[int] = []
        self.spans = 0
        self.iterations = 0

    def add_file(self, path: str | Path) -> None:
        import numpy as np

        with np.load(path) as z:
            name, parent = z["name"], z["parent"]
            dur = z["end"] - z["start"]
            meta = json.loads(str(z["meta"]))
        child = np.zeros_like(dur)
        inner = parent >= 0
        np.add.at(child, parent[inner], dur[inner])
        self_ns = dur - child
        calls = np.bincount(name, minlength=len(meta["names"]))
        incl = np.bincount(name, weights=dur, minlength=len(meta["names"]))
        own = np.bincount(name, weights=self_ns, minlength=len(meta["names"]))
        for i, span in enumerate(meta["names"]):
            self.layer[span] = meta["layer_of"][i]
            self.calls[span] += int(calls[i])
            self.incl_ns[span] += int(incl[i])
            self.self_ns[span] += int(own[i])
        self.counters.update(meta["counters"])
        self.errors.update(meta["errors"])
        self.import_s.append(float(meta["import_s"]))
        self.root_self_ns.append(int(self_ns.sum()))
        self.spans += int(len(dur))

    def mean(self, *spans: str, own: bool = False, scale: float = 1e-6) -> float:
        """Mean time per call over the given spans; ns scaled (default to ms)."""
        table = self.self_ns if own else self.incl_ns
        calls = sum(self.calls[s] for s in spans)
        return sum(table[s] for s in spans) / calls * scale if calls else 0.0

    def layer_self_ns(self, layer: str) -> int:
        return sum(ns for s, ns in self.self_ns.items() if self.layer.get(s) == layer)

    def per_iteration(self, value: float) -> float:
        return value / self.iterations if self.iterations else 0.0


US, MS, S = 1e-3, 1e-6, 1e-9


def layer_metrics(summary: SpanSummary) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one workload's traced iterations."""
    s = summary
    c = s.counters
    train_steps = c["training.env_steps"]
    updates = s.calls["ddpg.AgentLearner.critic_update"]
    nn_self_s = s.layer_self_ns("nn") * S
    pincer = [k for k in s.calls if k.startswith("pursuit.pincer_selection.n")]
    pincer_calls = sum(s.calls[k] for k in pincer)
    ep, ro = "training.run_episode", "evaluation.rollout"
    m: dict[str, tuple[float, str]] = {
        "nn.forward.us": (s.mean("nn.forward", scale=US), "us"),
        "nn.backward.us": (s.mean("nn.backward", scale=US), "us"),
        "nn.adam_step.us": (s.mean("nn.adam_step", scale=US), "us"),
        "nn.polyak_update.us": (s.mean("nn.polyak_update", scale=US), "us"),
        "nn.clip_global_norm.us": (s.mean("nn.clip_global_norm", scale=US), "us"),
        "nn.gflop_per_s": (c["nn.flops"] / nn_self_s / 1e9 if nn_self_s else 0.0, "GFLOP/s"),
        "nn.flop_per_env_step": (c["nn.flops"] / train_steps if train_steps else 0.0, "flop"),
        "ddpg.critic_update.ms": (s.mean("ddpg.AgentLearner.critic_update", scale=MS), "ms"),
        "ddpg.actor_update.ms": (s.mean("ddpg.AgentLearner.actor_update", scale=MS), "ms"),
        "ddpg.soft_update_targets.ms": (
            s.mean("ddpg.AgentLearner.soft_update_targets", scale=MS), "ms"),
        "ddpg.act.us": (
            s.mean("ddpg.AgentLearner.act", "ddpg.AgentLearner.act_explore", scale=US), "us"),
        "ddpg.replay_push.us": (s.mean("ddpg.ReplayBuffer.push", scale=US), "us"),
        "ddpg.replay_sample.us": (s.mean("ddpg.ReplayBuffer.sample", scale=US), "us"),
        "ddpg.self_ms_per_update": (
            sum(s.self_ns[f"ddpg.AgentLearner.{f}"]
                for f in ("critic_update", "actor_update", "soft_update_targets"))
            / updates * MS if updates else 0.0, "ms"),
        "ddpg.rows_sampled_per_env_step": (
            c["ddpg.rows_sampled"] / train_steps if train_steps else 0.0, "count"),
        "environment.step.us": (s.mean("environment.step", own=True, scale=US), "us"),
        "environment.observe.us": (
            s.mean("environment.observe_full", "environment.observe_partial", scale=US), "us"),
        "environment.step.calls": (s.per_iteration(s.calls["environment.step"]), "count"),
        "evader.evade_heading.us": (s.mean("evader.evade_heading", scale=US), "us"),
        "pursuit.greedy_heading.us": (s.mean("pursuit.greedy_heading", scale=US), "us"),
        "pursuit.pincer_selection.n3.us": (
            s.mean("pursuit.pincer_selection.n3", scale=US), "us"),
        "pursuit.pincer_selection.n5.us": (
            s.mean("pursuit.pincer_selection.n5", scale=US), "us"),
        "pursuit.pincer_selection.grid_cells": (
            c["pursuit.grid_cells"] / pincer_calls if pincer_calls else 0.0, "count"),
        "checkpoint.save.s": (s.mean("checkpoint.save_checkpoint", scale=S), "s"),
        "checkpoint.load.s": (s.mean("checkpoint.load_checkpoint", scale=S), "s"),
        "checkpoint.save.calls": (
            s.per_iteration(s.calls["checkpoint.save_checkpoint"]), "count"),
        "checkpoint.bytes_per_transition": (
            c["checkpoint.bytes"] / c["checkpoint.transitions"]
            if c["checkpoint.transitions"] else 0.0, "B"),
        "trajectory.write_step.us": (
            s.mean("trajectory.TrajectoryWriter.write_step", scale=US), "us"),
        "trajectory.read_many.s": (s.mean("trajectory.read_many", scale=S), "s"),
        "metrics.ic_report.s": (s.mean("metrics.ic_report", scale=S), "s"),
        "analysis.analyze_logs.self_s": (
            s.mean("analysis.analyze_logs", own=True, scale=S), "s"),
        "training.run_episode.self_share": (
            s.self_ns[ep] / s.incl_ns[ep] if s.incl_ns[ep] else 0.0, "share"),
        "training.update_steps": (s.per_iteration(updates), "count"),
        "training.env_steps": (s.per_iteration(train_steps), "count"),
        "evaluation.rollout.self_share": (
            s.self_ns[ro] / s.incl_ns[ro] if s.incl_ns[ro] else 0.0, "share"),
        "config.load_config.ms": (s.mean("config.load_config", scale=MS), "ms"),
        "cli.import_s": (_median(s.import_s), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.errors"] = (float(s.errors[layer]), "count")
    m["trace.spans"] = (s.per_iteration(s.spans), "count")
    m["trace.hook_errors"] = (float(c["trace.hook_errors"]), "count")
    return m


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


if __name__ == "__main__":
    sys.exit(_traced_main(sys.argv[1:]))
