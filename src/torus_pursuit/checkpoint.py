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
config gives, malformed noise or step counts, bookkeeping no ring of the
capacity reaches (an unwrapped ring writes at its size), and end slots not
strictly increasing inside the ring.

Schemas 1-4 are read-only. Their manifests hold an ``agents`` list that
repeats each agent's width, hyperparameters, activations, capacity,
bookkeeping, noise and step counts, which must be the config's and agree
across agents, and refers to each array as ``{"key", "offset", "shape"}``,
the values from ``offset`` on in entry ``key``. Schema 4 stores each agent's
next observations as break slots and their rows, sharing agent 0's slots;
schema 3 also each agent's actions, rewards and terminal flags; schema 2 a
dense ``next_obs``; schema 1 is one JSON document with every array inline as
decimals. Loading them refuses, naming the agent, the field and the slot, an
action that is not its next observation's heading columns, and rewards or
terminal flags that differ from agent 0's.
"""

from __future__ import annotations

import hashlib
import json
import math
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .config import ExperimentConfig
from .ddpg import ACTION_DIM, ReplayBuffer, TeamLearner, make_team
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


def _fill(views: list[np.ndarray], docs: list[dict], entries: _Entries,
          where: str, whole: bool = False) -> None:
    """Copies each referenced array into the team's view of the same shape."""
    if len(docs) != len(views):
        raise CheckpointIntegrityError(f"{where}: {len(docs)} arrays, want {len(views)}")
    for k, (view, doc) in enumerate(zip(views, docs)):
        if _shape(doc, f"{where}[{k}]") != list(view.shape):
            raise CheckpointIntegrityError(
                f"{where}[{k}]: shape {doc['shape']}, want {list(view.shape)}")
        view[...] = _array_load(doc, entries, f"{where}[{k}]", whole=whole)


_NETWORKS = ("actor", "critic", "actor_target", "critic_target")
# the activations every network runs (see nn), which schemas 1-4 name for each network
_ACTIVATIONS = {"hidden_activation": "relu", "output_activation": "identity"}
_OPTIMIZERS = {"adam_actor": "actor", "adam_critic": "critic"}
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


def _next_obs_load(ref: Any, obs: np.ndarray, entries: _Entries, where: str,
                   read: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Next observations as break slots and their rows: as stored (schemas 3
    and 4), or found in the dense field of schemas 1 and 2. Break slots are
    read once per reference: ``read`` holds them by the reference's JSON."""
    if not (isinstance(ref, dict) and "breaks" in ref):
        next_obs = np.empty_like(obs)
        _fill([next_obs], [ref], entries, where, whole=True)
        breaks = _next_obs_breaks(obs, next_obs)
        return breaks, next_obs[breaks]
    known = _as_json(ref["breaks"])
    if known not in read:
        read[known] = _slots(_array_load(ref["breaks"], entries, f"{where}.breaks",
                                         dtype=np.int64, whole=True), len(obs), f"{where}.breaks")
    breaks = read[known]
    if "rows" not in ref:
        raise CheckpointIntegrityError(f"{where} has no 'rows'")
    rows = _array_load(ref["rows"], entries, f"{where}.rows", whole=True)
    if rows.shape != (breaks.size, obs.shape[1]):
        raise CheckpointIntegrityError(
            f"{where}.rows: shape {list(rows.shape)}, want {[breaks.size, obs.shape[1]]} "
            "(one row per break slot)")
    return breaks, rows


def _as_json(ref: Any) -> str:
    return json.dumps(ref, sort_keys=True)


def _same_bits(values: np.ndarray, want: np.ndarray, where: str, what: str) -> None:
    """Refuses, naming the first slot, values that are not ``want`` bit for bit."""
    differs = np.flatnonzero(_rows_differ(values, want))
    if differs.size:
        j = int(differs[0])
        raise CheckpointIntegrityError(
            f"{where} slot {j}: {values[j].tolist()!r} differs from {what}, {want[j].tolist()!r}")


def _ring_load(buf: ReplayBuffer, docs: list[dict], entries: _Entries,
               stored_actions: bool) -> None:
    """Fills the rings, whose bookkeeping is in place, from every agent's
    entries (schemas 1-4), checking the facts stored more than once: each
    agent's rewards and terminal flags against agent 0's, and the actions of
    schemas 1-3 against the next observations' heading columns."""
    ring = buf.filled()
    for name in _TEAM_FIELDS:
        first = _field(docs[0], 0, f"buffer.{name}")
        _fill([ring[name]], [first], entries, f"agent 0 buffer.{name}", whole=True)
        for i, doc in enumerate(docs[1:], start=1):
            # as JSON, in which -0.0 and 0.0 differ, as their bits do
            if _as_json(ref := _field(doc, i, f"buffer.{name}")) != _as_json(first):
                where, values = f"agent {i} buffer.{name}", np.empty_like(ring[name])
                _fill([values], [ref], entries, where, whole=True)
                _same_bits(values, ring[name], where, "agent 0's")
    breaks, read = [], {}
    for i, doc in enumerate(docs):
        obs, where = ring["obs"][i], f"agent {i} buffer"
        _fill([obs], [_field(doc, i, "buffer.obs")], entries, f"{where}.obs", whole=True)
        breaks.append(_next_obs_load(_field(doc, i, "buffer.next_obs"), obs, entries,
                                     f"{where}.next_obs", read))
        if stored_actions:
            heads = np.roll(obs[:, :ACTION_DIM], -1, axis=0)
            agent_breaks, rows = breaks[-1]
            heads[agent_breaks] = rows[:, :ACTION_DIM]
            actions = np.empty_like(heads)
            _fill([actions], [_field(doc, i, "buffer.actions")], entries, f"{where}.actions",
                  whole=True)
            _same_bits(actions, heads, f"{where}.actions",
                       "the next observation's heading columns")
    buf.load_next_obs_breaks(breaks)


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
        value = _field(doc, i, path)
        if value != first:
            raise CheckpointIntegrityError(
                f"agent {i} has {path} {value!r} but agent 0 has {first!r}; "
                "a team's agents update in lockstep")
    if type(first) is not int or first < 0:
        raise CheckpointIntegrityError(f"agent 0 has {path} {first!r}, want an integer >= 0")
    return first


def _team_load(docs: list[dict], entries: _Entries, config: ExperimentConfig,
               replay: bool, version: int) -> TeamLearner:
    """Fills the team ``config`` describes from the per-agent entries, which must
    hold the config's value of every scalar it fixes and agree on the others;
    without ``replay`` the rings stay empty and no ring entry is read."""
    team = make_team(config)
    if len(docs) != team.n:
        raise CheckpointIntegrityError(
            f"checkpoint holds {len(docs)} agents, but the config's env.n is {team.n}")
    strategy = f"run.strategy {config.run.strategy!r}"  # which fixes the observation width
    fixed = {"obs_dim": (team.obs_dim, strategy), "buffer.obs_dim": (team.obs_dim, strategy),
             "buffer.capacity": (team.buffer.capacity, "ddpg.buffer_capacity"),
             **{name: (getattr(team.ddpg, name), f"ddpg.{name}") for name in _HYPERPARAMETERS}}
    for i, doc in enumerate(docs):
        for path, (want, source) in fixed.items():
            if (got := _field(doc, i, path)) != want:
                raise CheckpointIntegrityError(
                    f"agent {i} has {path} {got!r}, but the config's {source} gives {want!r}")
    ring = _bookkeeping({name: _agreed(docs, f"buffer.{name}") for name in ("next", "size")},
                        team.buffer.capacity)
    for name in _OPTIMIZERS:
        getattr(team, name).step = _agreed(docs, f"{name}.step")
    for i, doc in enumerate(docs):
        for name in _NETWORKS:
            for path, want in _ACTIVATIONS.items():
                if (got := _field(doc, i, f"{name}.{path}")) != want:
                    raise CheckpointIntegrityError(
                        f"agent {i} has {name}.{path} {got!r}; the networks run only {want!r}")
            net = getattr(team, name)
            weights, biases = net.layers(net.flat[i])
            refs = _field(doc, i, f"{name}.weights") + _field(doc, i, f"{name}.biases")
            _fill(weights + biases, refs, entries, f"agent {i} {name}")
        for name, net_name in _OPTIMIZERS.items():
            net, state = getattr(team, net_name), getattr(team, name)
            for moment in ("m", "v"):
                weights, biases = net.layers(getattr(state, moment)[i])
                refs = (_field(doc, i, f"{name}.{moment}_weights")
                        + _field(doc, i, f"{name}.{moment}_biases"))
                _fill(weights + biases, refs, entries, f"agent {i} {name}.{moment}")
        if not _numbers(noise := _field(doc, i, "noise_state"), ACTION_DIM):
            raise CheckpointIntegrityError(
                f"agent {i} has noise_state {noise!r}, want {ACTION_DIM} numbers")
        team.noise[i] = noise
    if replay:
        team.buffer._next, team.buffer._size = ring["next"], ring["size"]
        _ring_load(team.buffer, docs, entries, stored_actions=version < 4)
    return team


def _bookkeeping(ring: dict[str, int], capacity: int) -> dict[str, int]:
    """The ring's ``next`` and ``size``, which a ring of ``capacity`` must reach."""
    # a ring that has not wrapped yet writes at its size
    if not (0 <= ring["next"] < capacity and 0 <= ring["size"] <= capacity
            and (ring["size"] == capacity or ring["next"] == ring["size"])):
        raise CheckpointIntegrityError(
            f"replay bookkeeping {ring} does not fit a ring of {capacity} transitions")
    return ring


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


def _team_read(doc: dict, entries: _Entries, config: ExperimentConfig,
               replay: bool) -> TeamLearner:
    """Fills the team ``config`` describes from a schema 5 manifest and the
    sidecar entries of fixed names; without ``replay`` the rings stay empty
    and no ring entry is read."""
    team = make_team(config)
    (n, width), d, buf = team.state.shape, team.obs_dim, team.buffer
    if not _numbers(noise := doc["noise"], n, ACTION_DIM):
        raise CheckpointIntegrityError(f"noise {noise!r}: want {n} rows of {ACTION_DIM} numbers")
    team.noise[...] = noise
    for name, step in _integers(doc, "adam_steps", sorted(_OPTIMIZERS)).items():
        getattr(team, name).step = step
    ring = _bookkeeping(_integers(doc, "buffer", ["next", "size"]), buf.capacity)
    for i in range(n):
        team.state[i] = _entry(entries, f"agents.{i}", [width], f"agent {i} state, as "
                               f"run.strategy {config.run.strategy!r} observes {d} values")
    if not replay:
        return team
    buf._next, buf._size = ring["next"], ring["size"]
    filled, size = buf.filled(), buf._size
    ring_entries = {f"buffer.{name}": filled[name] for name in _TEAM_FIELDS}
    ring_entries.update((f"agents.{i}.buffer.obs", filled["obs"][i]) for i in range(n))
    for key, view in ring_entries.items():
        view[...] = _entry(entries, key, list(view.shape), key)
    ends = _slots(_entry(entries, "buffer.ends", None, "buffer.ends", np.int64), size,
                  "buffer.ends")
    rows = _entry(entries, "buffer.end_rows", [len(ends), n, d], "buffer.end_rows")
    buf.load_next_obs_breaks([(ends, rows[:, i]) for i in range(n)])
    return team


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
    session: int,
    epoch: int,
    global_epoch: int,
    rng_states: dict[str, Any],
) -> None:
    """Writes the sidecar, then the manifest, each via a temp file and replace."""
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
    _write_manifest(snapshot, Path(final).read_text())
    sidecar_path(snapshot).unlink(missing_ok=True)


def _write_manifest(target: Path, text: str) -> None:
    tmp = target.with_suffix(target.suffix + ".tmp")
    tmp.write_text(text)
    tmp.replace(target)


_SIDECAR_FIELDS = {"file": str, "bytes": int, "sha256": str}


def _verified_sidecar(manifest: Path, doc: Any) -> Path:
    """The manifest's sidecar, a file in the manifest's own directory, after
    checking its size and SHA-256."""
    if not isinstance(doc, dict):
        raise CheckpointIntegrityError(
            f"checkpoint {manifest}: sidecar is {type(doc).__name__}, want an object")
    for name, kind in _SIDECAR_FIELDS.items():
        if type(doc.get(name)) is not kind:
            raise CheckpointIntegrityError(
                f"checkpoint {manifest}: sidecar.{name} is {doc.get(name)!r}, "
                f"want {'an integer' if kind is int else 'a string'}")
    if Path(doc["file"]).name != doc["file"]:
        raise CheckpointIntegrityError(
            f"checkpoint {manifest}: sidecar.file {doc['file']!r} is not a file name in "
            "the manifest's directory")
    sidecar = manifest.parent / doc["file"]
    where = f"checkpoint {manifest}: sidecar {sidecar}"
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
    DigestMismatchError. Raises CheckpointIntegrityError, naming the field
    (and the agent, in schemas 1-4), on anything the module docstring lists
    as refused. The arrays are read from the file the manifest's
    ``sidecar.file`` names. Without ``replay`` the rings stay empty and no
    ring entry is read or checked, for a caller that only acts with the
    networks.
    """
    manifest = Path(path)
    try:
        doc = json.loads(manifest.read_text())
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
    if version == 1:  # which inlines its arrays
        team = _team_load(doc["agents"], {}.get, config, replay, version)
    else:
        with np.load(_verified_sidecar(manifest, doc["sidecar"]), allow_pickle=False) as z:
            # each lookup rereads the member, and one state or ring entry is
            # read at a time; schemas 2-4 read an entry's references in a row
            def entries(key: str) -> np.ndarray | None:
                return z[key] if key in z.files else None

            team = (_team_read(doc, entries, config, replay) if version == 5 else
                    _team_load(doc["agents"], lru_cache(maxsize=1)(entries), config, replay,
                               version))
    return team, doc["session"], doc["epoch"], doc["global_epoch"], doc["rng_states"]
