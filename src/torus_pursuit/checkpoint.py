"""Checkpoint serialization: a JSON manifest plus an exact float64 .npz sidecar.

A checkpoint holds everything training needs to resume bit for bit. Schema
version 5 stores only what the config does not fix: loading checks the
config digest first and fills the team the config describes
(``ddpg.make_team``), which fixes the agent count, every array's shape, the
hyperparameters and the ring capacity. The JSON manifest holds the schema
version, the digest, the position (``session``, ``epoch``,
``global_epoch``), ``rng_states``, the (n, 2) exploration ``noise``, the Adam
step counts ``adam_steps`` and the ring bookkeeping ``buffer`` (``next``,
``size``). The arrays go to an uncompressed ``.npz`` sidecar of the
manifest's stem (``checkpoint_epoch5.json`` -> ``checkpoint_epoch5.npz``) as
flat row-major entries of fixed names:

- ``agents.i``: row i of the team's (n, S) state array, so all of agent i's
  network and Adam arrays in one entry (reading a zip member costs far more
  than its bytes);
- ``agents.i.buffer.obs``: agent i's filled ring slice ``obs[i, :size]``;
- ``buffer.rewards`` and ``buffer.terminals``: the team's, one per slot;
- ``buffer.ends``: the int64 slots of the ring's end table, increasing;
- ``buffer.end_rows``: those slots' next observations, (k, n, obs_dim).

Each replay fact is stored once, as the ring (``ddpg.ReplayBuffer``) holds
it: a slot's action is the heading columns of its next observation, which
is, bit for bit, the next slot's ``obs`` row except at the end table's
slots. Loading reads each entry once, one agent's at a time. Equal states
give equal sidecar bytes (zip entries carry a fixed timestamp).

The manifest records the sidecar's file name (a bare name in its own
directory), byte size and SHA-256. A plan that ends on a snapshot epoch
writes that snapshot as a copy of the final ``checkpoint.json``, naming
``checkpoint.npz``, so deleting or rewriting that file breaks both. Loading
raises ``CheckpointIntegrityError`` on a sidecar that is missing or differs,
a manifest that is not a JSON object or lacks a field, a position the
config's plan never writes, an entry of another size or dtype than the
config gives, a network or Adam value that is not finite, a negative Adam
second moment, malformed noise or step counts, bookkeeping no ring of the
capacity reaches (an unwrapped ring writes at its size), and end slots not
strictly increasing inside the ring or without its write head.

Schemas 1-4 are read-only: an adapter turns them into schema 5's team
fields and entries for the one reader. Their ``agents`` list repeats each
agent's width, hyperparameters, activations, capacity, bookkeeping, noise
and step counts, which must be the config's and agree across agents, and
refers to each array as ``{"key", "offset", "shape"}``, the values from
``offset`` on in entry ``key``. Schema 4 stores each agent's next
observations as break slots and their rows, sharing agent 0's slots; schema
3 also each agent's actions, rewards and terminal flags; schema 2 a dense
``next_obs``; schema 1 is one JSON document with every array inline as
decimals. Loading them refuses, naming the agent, the field and the slot, an
action that is not its next observation's heading columns, and rewards or
terminal flags that differ from agent 0's.
"""

from __future__ import annotations

import hashlib
import json
import math
from functools import cache
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .config import ExperimentConfig
from .ddpg import ACTION_DIM, TeamLearner, make_team
from .errors import CheckpointIntegrityError, DigestMismatchError, SchemaVersionError

CHECKPOINT_SCHEMA_VERSION = 5
READABLE_SCHEMA_VERSIONS = (1, 2, 3, 4, 5)
_HASH_CHUNK = 1 << 18
_POSITION = ("session", "epoch", "global_epoch")
_TOP_LEVEL = ("config_digest", *_POSITION, "rng_states")
# a sidecar entry by key, None when the sidecar has no such entry
_Entries = Callable[[str], "np.ndarray | None"]


def _rows_differ(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Which rows of two float64 arrays differ bit for bit (so -0.0 or a NaN payload counts)."""
    return (a.view(np.uint64) != b.view(np.uint64)).reshape(len(a), math.prod(a.shape[1:])).any(1)


def _shape(doc: Any, where: str) -> list[int]:
    """A reference's shape: a list of sizes."""
    shape = doc.get("shape") if isinstance(doc, dict) else None
    if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
        raise CheckpointIntegrityError(f"{where}: shape {shape!r} is not a list of sizes")
    return shape


def _array_load(doc: dict, entries: _Entries, where: str,
                dtype: type = np.float64, whole: bool = False) -> np.ndarray:
    """Resolves one array doc: inline decimals (schema 1) or a sidecar slice.

    The values must be of ``dtype``; with ``whole``, a reference must cover
    its entry exactly, as every ring field's does.
    """
    shape = _shape(doc, where)
    if "data" in doc:
        try:
            values = np.array(doc["data"], dtype=np.float64).reshape(shape)
        except (TypeError, ValueError) as exc:
            raise CheckpointIntegrityError(f"{where}: inline values do not fit: {exc}") from exc
    else:
        key, start, count = doc.get("key"), doc.get("offset"), math.prod(shape)
        if not isinstance(key, str) or type(start) is not int:
            raise CheckpointIntegrityError(
                f"{where}: a reference needs a string 'key' and an integer 'offset', "
                f"got {key!r} and {start!r}")
        entry = entries(key)
        if entry is None or not 0 <= start <= entry.size - count:
            raise CheckpointIntegrityError(
                f"{where}: values {start}..{start + count} are not in sidecar entry {key!r}")
        if whole and (start, count) != (0, entry.size):
            raise CheckpointIntegrityError(
                f"{where}: refers to values {start}..{start + count} of sidecar entry {key!r}, "
                f"which holds {entry.size}")
        values = entry[start : start + count].reshape(shape)
    if values.dtype != dtype:
        raise CheckpointIntegrityError(
            f"{where}: values are {values.dtype}, want {np.dtype(dtype)}")
    return values


def _entry(entries: _Entries, key: str, shape: list[int] | None, where: str,
           dtype: type = np.float64) -> np.ndarray:
    """Sidecar entry ``key``, read once, which must hold exactly the values of
    ``shape``; without one, it holds a list of any length."""
    entry = entries(key)
    if shape is None:
        shape = [0 if entry is None else entry.size]
    return _array_load({"key": key, "offset": 0, "shape": shape}, lambda _: entry, where, dtype,
                       whole=True)


def _arrays(docs: list, shapes: list, entries: _Entries, where: str,
            whole: bool = False) -> list[np.ndarray]:
    """The arrays the references ``docs`` give, which must have ``shapes``."""
    if len(docs) != len(shapes):
        raise CheckpointIntegrityError(f"{where}: {len(docs)} arrays, want {len(shapes)}")
    for k, (shape, doc) in enumerate(zip(shapes, docs)):
        if _shape(doc, f"{where}[{k}]") != list(shape):
            raise CheckpointIntegrityError(
                f"{where}[{k}]: shape {doc['shape']}, want {list(shape)}")
    return [_array_load(doc, entries, f"{where}[{k}]", whole=whole) for k, doc in enumerate(docs)]


_NETWORKS = ("actor", "critic", "actor_target", "critic_target")
# the activations every network runs (see nn), which schemas 1-4 name for each network
_ACTIVATIONS = {"hidden_activation": "relu", "output_activation": "identity"}
_OPTIMIZERS = {"adam_actor": "actor", "adam_critic": "critic"}
# an agent's state row (ddpg.TeamLearner.state) part by part: name, layout, schema 1-4 lists
_STATE_PARTS = [(name, name, f"{name}.weights", f"{name}.biases") for name in _NETWORKS] + [
    (f"{name}.{moment}", net, f"{name}.{moment}_weights", f"{name}.{moment}_biases")
    for name, net in _OPTIMIZERS.items() for moment in ("m", "v")]
_HYPERPARAMETERS = ("gamma", "tau", "lr_actor", "lr_critic", "clip_norm", "theta_ou", "sigma_ou")
_TEAM_FIELDS = ("rewards", "terminals")  # one per slot, for the whole team


def _next_obs_breaks(obs: np.ndarray, next_obs: np.ndarray) -> np.ndarray:
    """The slots j whose next_obs row is not, bit for bit, obs row (j + 1) % size."""
    return np.flatnonzero(_rows_differ(next_obs, np.roll(obs, -1, axis=0))).astype(np.int64)


def _slots(slots: np.ndarray, size: int, where: str) -> np.ndarray:
    """``slots``, which must be strictly increasing slots of a ring of ``size``."""
    if slots.ndim != 1 or (slots.size and not (
            0 <= slots[0] and slots[-1] < size and np.all(slots[1:] > slots[:-1]))):
        raise CheckpointIntegrityError(f"{where}: slots must be strictly increasing in [0, {size})")
    return slots


def _next_obs_load(ref: Any, obs: np.ndarray, entries: _Entries,
                   where: str) -> tuple[np.ndarray, np.ndarray]:
    """Next observations as break slots and their rows: as stored (schemas 3
    and 4), or found in the dense field of schemas 1 and 2."""
    if not (isinstance(ref, dict) and "breaks" in ref):
        (next_obs,) = _arrays([ref], [obs.shape], entries, where, whole=True)
        breaks = _next_obs_breaks(obs, next_obs)
        return breaks, next_obs[breaks]
    breaks = _slots(_array_load(ref["breaks"], entries, f"{where}.breaks", dtype=np.int64,
                                whole=True), len(obs), f"{where}.breaks")
    if "rows" not in ref:
        raise CheckpointIntegrityError(f"{where} has no 'rows'")
    rows = _array_load(ref["rows"], entries, f"{where}.rows", whole=True)
    if rows.shape != (breaks.size, obs.shape[1]):
        raise CheckpointIntegrityError(
            f"{where}.rows: shape {list(rows.shape)}, want {[breaks.size, obs.shape[1]]} "
            "(one row per break slot)")
    return breaks, rows


def _same_bits(values: np.ndarray, want: np.ndarray, where: str, what: str) -> None:
    """Refuses, naming the first slot, values that are not ``want`` bit for bit."""
    differs = np.flatnonzero(_rows_differ(values, want))
    if differs.size:
        j = int(differs[0])
        raise CheckpointIntegrityError(
            f"{where} slot {j}: {values[j].tolist()!r} differs from {what}, {want[j].tolist()!r}")


def _ring_entries(docs: list[dict], entries: _Entries, obs_dim: int, head: int, size: int,
                  stored_actions: bool) -> dict[str, np.ndarray]:
    """Schema 5's ring entries from every agent's (schemas 1-4), checking each
    agent's rewards and terminal flags against agent 0's, and the actions of
    schemas 1-3 against the next observations' heading columns. The end table
    holds the write ``head`` and every agent's break slots."""
    def whole(ref: Any, shape: list[int], where: str) -> np.ndarray:
        return _arrays([ref], [shape], entries, where, whole=True)[0]

    out = {}
    for name in _TEAM_FIELDS:
        first = _field(docs[0], 0, f"buffer.{name}")
        out[f"buffer.{name}"] = whole(first, [size], f"agent 0 buffer.{name}")
        for i, doc in enumerate(docs[1:], start=1):
            where = f"agent {i} buffer.{name}"
            values = whole(_field(doc, i, f"buffer.{name}"), [size], where)
            _same_bits(values, out[f"buffer.{name}"], where, "agent 0's")
    obs, breaks = [], []
    for i, doc in enumerate(docs):
        where = f"agent {i} buffer"
        obs.append(whole(_field(doc, i, "buffer.obs"), [size, obs_dim], f"{where}.obs"))
        breaks.append(_next_obs_load(_field(doc, i, "buffer.next_obs"), obs[i], entries,
                                     f"{where}.next_obs"))
        if stored_actions:
            heads = np.roll(obs[i][:, :ACTION_DIM], -1, axis=0)
            heads[breaks[i][0]] = breaks[i][1][:, :ACTION_DIM]
            actions = whole(_field(doc, i, "buffer.actions"), heads.shape, f"{where}.actions")
            _same_bits(actions, heads, f"{where}.actions", "the next observation's heading columns")
    slots = np.unique(np.concatenate([np.array([head][:size], dtype=np.int64),
                                      *(agent_breaks for agent_breaks, _ in breaks)]))
    end_rows = np.stack([agent_obs[(slots + 1) % size] for agent_obs in obs], axis=1)
    for i, (agent_breaks, rows) in enumerate(breaks):
        end_rows[np.searchsorted(slots, agent_breaks), i] = rows
    out.update((f"agents.{i}.buffer.obs", agent_obs.ravel()) for i, agent_obs in enumerate(obs))
    return {**out, "buffer.ends": slots, "buffer.end_rows": end_rows.ravel()}


def _field(doc: dict, i: int, path: str) -> Any:
    node: Any = doc
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            raise CheckpointIntegrityError(f"agent {i} has no {path!r}")
        node = node[part]
    return node


def _agreed(docs: list[dict], path: str) -> int:
    """The integer at ``path``, which every agent of a team must hold alike."""
    first = _field(docs[0], 0, path)
    for i, doc in enumerate(docs[1:], start=1):
        if (value := _field(doc, i, path)) != first:
            raise CheckpointIntegrityError(
                f"agent {i} has {path} {value!r} but agent 0 has {first!r}; "
                "a team's agents update in lockstep")
    if type(first) is not int or first < 0:
        raise CheckpointIntegrityError(f"agent 0 has {path} {first!r}, want an integer >= 0")
    return first


def _as_schema_5(doc: dict, entries: _Entries, team: TeamLearner,
                 config: ExperimentConfig) -> tuple[dict, _Entries]:
    """A schema 1-4 manifest as schema 5 stores its team: the fields
    ``noise``, ``adam_steps`` and ``buffer``, and the entries by schema 5's
    names, every ring entry decoded when the first is asked for. Each agent
    must hold the config's value of every scalar it fixes and agree on the rest."""
    docs = doc["agents"]
    if not isinstance(docs, list):
        raise CheckpointIntegrityError(f"agents is {type(docs).__name__}, want a list")
    if len(docs) != team.n:
        raise CheckpointIntegrityError(
            f"checkpoint holds {len(docs)} agents, but the config's env.n is {team.n}")
    strategy = f"run.strategy {config.run.strategy!r}"  # which fixes the observation width
    fixed = [("obs_dim", team.obs_dim, strategy), ("buffer.obs_dim", team.obs_dim, strategy),
             ("buffer.capacity", team.buffer.capacity, "ddpg.buffer_capacity"),
             *((name, getattr(team.ddpg, name), f"ddpg.{name}") for name in _HYPERPARAMETERS)]
    refusals = {path: (want, f", but the config's {source} gives {want!r}")
                for path, want, source in fixed}
    refusals.update((f"{name}.{path}", (want, f"; the networks run only {want!r}"))
                    for name in _NETWORKS for path, want in _ACTIVATIONS.items())
    ring = {name: _agreed(docs, f"buffer.{name}") for name in ("next", "size")}
    steps = {name: _agreed(docs, f"{name}.step") for name in _OPTIMIZERS}
    rows, noise = {}, []
    for i, agent in enumerate(docs):
        for path, (want, refusal) in refusals.items():
            if (got := _field(agent, i, path)) != want:
                raise CheckpointIntegrityError(f"agent {i} has {path} {got!r}{refusal}")
        if not _numbers(state := _field(agent, i, "noise_state"), ACTION_DIM):
            raise CheckpointIntegrityError(
                f"agent {i} has noise_state {state!r}, want {ACTION_DIM} numbers")
        noise.append(state)
        arrays = []  # agent i's state row, part by part
        for part, net_name, *paths in _STATE_PARTS:
            refs = []
            for path in paths:
                if not isinstance(listed := _field(agent, i, path), list):
                    raise CheckpointIntegrityError(
                        f"agent {i} has {path} {listed!r}, want a list of arrays")
                refs += listed
            net = getattr(team, net_name)
            arrays += _arrays(refs, [a.shape[1:] for a in net.weights + net.biases], entries,
                              f"agent {i} {part}")
        rows[f"agents.{i}"] = np.concatenate([a.ravel() for a in arrays])
    # the reader asks for ring entries only with the replay, after it checks the bookkeeping
    decoded = cache(lambda: _ring_entries(
        docs, entries, team.obs_dim, (ring["next"] - 1) % team.buffer.capacity, ring["size"],
        stored_actions=doc["schema_version"] < 4))
    return ({"noise": noise, "adam_steps": steps, "buffer": ring},
            lambda key: rows.pop(key) if key in rows else decoded().pop(key, None))


def _numbers(values: Any, *shape: int) -> bool:
    """Whether ``values`` is a number, or nested lists of numbers of ``shape``."""
    if not shape:
        return type(values) in (int, float)
    return (isinstance(values, list) and len(values) == shape[0]
            and all(_numbers(v, *shape[1:]) for v in values))


def _integers(doc: dict, name: str, keys: list[str]) -> dict[str, int]:
    """The object ``doc[name]``, which must map exactly ``keys`` to integers >= 0."""
    value = doc[name]
    if not (isinstance(value, dict) and sorted(value) == keys
            and all(type(v) is int and v >= 0 for v in value.values())):
        raise CheckpointIntegrityError(f"{name} {value!r}: want an integer >= 0 for each of {keys}")
    return value


def _check_trainable(team: TeamLearner) -> None:
    """Refuses, naming the agent and the part, a network or Adam value that is
    not finite and a negative Adam second moment: a state no update can use."""
    parts = {name: getattr(team, name).flat for name in _NETWORKS}
    parts.update((f"{name}.{moment}", getattr(getattr(team, name), moment))
                 for name in _OPTIMIZERS for moment in ("m", "v"))
    for i in range(team.n):
        for part, values in parts.items():
            second = part.endswith(".v")
            bad = np.flatnonzero(~np.isfinite(values[i]) | (values[i] < 0 if second else False))
            if bad.size:
                raise CheckpointIntegrityError(
                    f"agent {i} {part}: value {bad[0]} is {float(values[i, bad[0]])!r}, "
                    f"want a finite number{' >= 0' if second else ''}")


def _team_read(team: TeamLearner, doc: dict, entries: _Entries, config: ExperimentConfig,
               replay: bool) -> None:
    """Fills ``team``, as ``config`` makes it, from a schema 5 manifest's team
    fields and the entries of fixed names (schemas 1-4 through ``_as_schema_5``);
    without ``replay`` the rings stay empty and no ring entry is read."""
    (n, width), d, buf = team.state.shape, team.obs_dim, team.buffer
    if not _numbers(noise := doc["noise"], n, ACTION_DIM):
        raise CheckpointIntegrityError(f"noise {noise!r}: want {n} rows of {ACTION_DIM} numbers")
    team.noise[...] = noise
    for name, step in _integers(doc, "adam_steps", sorted(_OPTIMIZERS)).items():
        getattr(team, name).step = step
    ring = _integers(doc, "buffer", ["next", "size"])
    # a ring that has not wrapped yet writes at its size
    if not (ring["next"] < buf.capacity and ring["size"] in (buf.capacity, ring["next"])):
        raise CheckpointIntegrityError(
            f"replay bookkeeping {ring} does not fit a ring of {buf.capacity} transitions")
    for i in range(n):
        team.state[i] = _entry(entries, f"agents.{i}", [width], f"agent {i} state, as "
                               f"run.strategy {config.run.strategy!r} observes {d} values")
    _check_trainable(team)
    if not replay:
        return
    buf._next, buf._size = ring["next"], ring["size"]
    filled, size = buf.filled(), buf._size
    ring_entries = {f"buffer.{name}": filled[name] for name in _TEAM_FIELDS}
    ring_entries.update((f"agents.{i}.buffer.obs", filled["obs"][i]) for i in range(n))
    for key, view in ring_entries.items():
        view[...] = _entry(entries, key, list(view.shape), key)
    ends = _slots(_entry(entries, "buffer.ends", None, "buffer.ends", np.int64), size,
                  "buffer.ends")
    if size and (head := (buf._next - 1) % buf.capacity) not in ends:
        raise CheckpointIntegrityError(f"buffer.ends: lacks the write head, slot {head}")
    buf.load_end_table(ends, _entry(entries, "buffer.end_rows", [len(ends), n, d],
                                    "buffer.end_rows"))


def sidecar_path(path: str | Path) -> Path:
    """The .npz file holding the arrays of the manifest at ``path``."""
    return Path(path).with_suffix(".npz")


def _sha256(path: Path) -> str:
    # one buffer read into again and again, not a new chunk per read
    h, chunk = hashlib.sha256(), memoryview(bytearray(_HASH_CHUNK))
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(chunk):
            h.update(chunk[:size])
    return h.hexdigest()


def save_checkpoint(
    path: str | Path,
    config: ExperimentConfig,
    team: TeamLearner,
    global_epoch: int,
    rng_states: dict[str, Any],
) -> None:
    """Writes the sidecar, then the manifest, each via a temp file and replace.

    ``global_epoch`` is the next epoch to train; the manifest's session and
    epoch are its ``position`` in the config's plan.
    """
    session, epoch = config.curriculum.position(global_epoch)
    target = Path(path)
    sidecar = sidecar_path(target)
    buf = team.buffer
    ring = buf.filled()
    arrays = {f"buffer.{name}": ring[name] for name in _TEAM_FIELDS}
    for i in range(team.n):
        arrays[f"agents.{i}"] = team.state[i]
        arrays[f"agents.{i}.buffer.obs"] = ring["obs"][i].ravel()  # a filled slice: contiguous
    ends, end_rows = buf.end_table()
    arrays["buffer.ends"], arrays["buffer.end_rows"] = ends, end_rows.ravel()
    target.parent.mkdir(parents=True, exist_ok=True)

    # np.savez appends ".npz" to a str path that lacks it, so hand it a file.
    sidecar_tmp = sidecar.with_suffix(sidecar.suffix + ".tmp")
    with open(sidecar_tmp, "wb") as fh:
        np.savez(fh, **arrays)
    sidecar_doc = {
        "file": sidecar.name,
        "bytes": sidecar_tmp.stat().st_size,
        "sha256": _sha256(sidecar_tmp),
    }
    sidecar_tmp.replace(sidecar)

    doc = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "config_digest": config.digest(),
        "session": session,
        "epoch": epoch,
        "global_epoch": global_epoch,
        "noise": team.noise.tolist(),
        "adam_steps": {name: getattr(team, name).step for name in _OPTIMIZERS},
        "buffer": {"next": buf._next, "size": buf._size},
        "rng_states": rng_states,
        "sidecar": sidecar_doc,
    }
    _write_manifest(target, json.dumps(doc))


def alias_checkpoint(final: str | Path, snapshot: str | Path) -> None:
    """Writes the manifest at ``final`` again at ``snapshot``, naming the same
    sidecar, and removes the sidecar of ``snapshot``'s own stem that an
    earlier run may have left there.

    A training plan that ends on a snapshot epoch gives its final checkpoint
    and that snapshot the same content, so the snapshot borrows the final
    checkpoint's sidecar instead of writing a second copy of it.
    """
    snapshot = Path(snapshot)
    _write_manifest(snapshot, Path(final).read_text(encoding="utf-8"))
    sidecar_path(snapshot).unlink(missing_ok=True)


def _write_manifest(target: Path, text: str) -> None:
    tmp = target.with_suffix(target.suffix + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    tmp.replace(target)


_SIDECAR_FIELDS = {"file": str, "bytes": int, "sha256": str}


def _verified_sidecar(manifest: Path, doc: Any) -> Path:
    """The manifest's sidecar, a file in the manifest's own directory, after
    checking its size and SHA-256."""
    if not isinstance(doc, dict):
        raise CheckpointIntegrityError(f"sidecar is {type(doc).__name__}, want an object")
    for name, kind in _SIDECAR_FIELDS.items():
        if type(doc.get(name)) is not kind:
            raise CheckpointIntegrityError(f"sidecar.{name} is {doc.get(name)!r}, want "
                                           f"{'an integer' if kind is int else 'a string'}")
    if Path(doc["file"]).name != doc["file"]:
        raise CheckpointIntegrityError(
            f"sidecar.file {doc['file']!r} is not a file name in the manifest's directory")
    sidecar = manifest.parent / doc["file"]
    where = f"sidecar {sidecar}"
    if not sidecar.is_file():
        raise CheckpointIntegrityError(f"{where} is missing")
    size = sidecar.stat().st_size
    if size != doc["bytes"]:
        raise CheckpointIntegrityError(f"{where} holds {size} bytes, manifest records {doc['bytes']}")
    if _sha256(sidecar) != doc["sha256"]:
        raise CheckpointIntegrityError(f"{where} does not match the manifest's SHA-256")
    return sidecar


def load_checkpoint(
    path: str | Path, config: ExperimentConfig, replay: bool = True
) -> tuple[TeamLearner, int, int, int, dict[str, Any]]:
    """Returns (team, session, epoch, global_epoch, rng_states).

    The checkpoint's config digest must be `config`'s, or its legacy digest
    (written while `env` held an unread `seed` field at 0); else
    DigestMismatchError. Raises CheckpointIntegrityError, naming the file and
    then the field (and the agent), on anything the module docstring lists
    as refused. The arrays are read from the file the manifest's
    ``sidecar.file`` names. Without ``replay`` the rings stay empty and no
    ring entry is read or checked, for a caller that only acts with the
    networks.
    """
    manifest = Path(path)
    try:
        doc = json.loads(manifest.read_text(encoding="utf-8"))
    except ValueError as exc:  # not JSON, or not text
        raise CheckpointIntegrityError(f"checkpoint {manifest} is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CheckpointIntegrityError(
            f"checkpoint {manifest} is a JSON {type(doc).__name__}, want an object")
    version = doc.get("schema_version")
    if type(version) is not int or version not in READABLE_SCHEMA_VERSIONS:
        raise SchemaVersionError(f"unknown checkpoint schema version {version!r}")
    team_state = ("noise", "adam_steps", "buffer") if version == 5 else ("agents",)
    for name in _TOP_LEVEL + team_state + (("sidecar",) if version > 1 else ()):
        if name not in doc:
            raise CheckpointIntegrityError(f"checkpoint {manifest} has no {name!r}")
    if doc["config_digest"] not in (config.digest(), config.legacy_digest()):
        raise DigestMismatchError(
            "checkpoint was produced by a different config "
            f"(digest {str(doc['config_digest'])[:12]}... != {config.digest()[:12]}...)"
        )
    if not config.curriculum.holds_position(**(position := {k: doc[k] for k in _POSITION})):
        raise CheckpointIntegrityError(
            f"checkpoint {manifest}: {position} is no position in the config's plan of "
            f"sessions of {[s.epochs for s in config.curriculum.sessions]} epochs")
    team = make_team(config)
    try:
        if version == 1:  # which inlines its arrays
            _team_read(team, *_as_schema_5(doc, {}.get, team, config), config, replay)
        else:
            with np.load(_verified_sidecar(manifest, doc["sidecar"]), allow_pickle=False) as z:
                # each lookup rereads the member, and one state or ring entry is
                # read at a time; schemas 2-4 keep each entry they read
                def entries(key: str) -> np.ndarray | None:
                    return z[key] if key in z.files else None

                fields = ((doc, entries) if version == 5 else
                          _as_schema_5(doc, cache(entries), team, config))
                _team_read(team, *fields, config, replay)
    except CheckpointIntegrityError as exc:
        raise CheckpointIntegrityError(f"checkpoint {manifest}: {exc}") from exc
    return team, doc["session"], doc["epoch"], doc["global_epoch"], doc["rng_states"]
