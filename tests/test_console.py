"""The console contract: every leg runs the CLI as a subprocess.

Each leg gets a fresh interpreter, so the CLI's lazy imports run without the
modules a test session has already loaded. The legs run the installed
``torus-pursuit`` script when it is on PATH, and else ``python -m
torus_pursuit.cli`` on the package this session imports.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import torus_pursuit

DATA = Path(__file__).parent / "data"
TINY = DATA / "checkpoint_v2" / "tiny_config.json"
FINAL = DATA / "final_snapshot_config.json"
V4 = DATA / "checkpoint_v4" / "checkpoint_epoch4"
EVAL_FILES = ("trajectories_ratio_1.csv", "success.csv")

_SCRIPT = shutil.which("torus-pursuit")
COMMAND = [_SCRIPT] if _SCRIPT else [sys.executable, "-m", "torus_pursuit.cli"]
_SRC = str(Path(torus_pursuit.__file__).resolve().parents[1])
ENV = dict(os.environ) if _SCRIPT else {
    **os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}
# a text file opened without naming its encoding fails the leg
ENV.update(PYTHONWARNDEFAULTENCODING="1", PYTHONWARNINGS="error::EncodingWarning")


def cli(*args, status=0):
    """Runs the CLI on ``args``, checks that it exits with ``status``, and
    returns its stderr."""
    done = subprocess.run([*COMMAND, *map(str, args)], env=ENV, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == status, f"{args} exited {done.returncode}:\n{done.stderr}"
    return done.stderr


def refused(*args):
    """Runs the CLI on ``args`` and checks the refusal: exit 2 and an
    ``error: `` line, not a traceback."""
    err = cli(*args, status=2)
    assert any(line.startswith("error: ") for line in err.splitlines()), err


def same_files(a, b, names):
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), f"{a / name} != {b / name}"


def evaluate(config, checkpoint, out):
    cli("eval", "--config", config, "--strategy", "cd_ddpg", "--checkpoint", checkpoint,
        "--ratios", "1.0", "--episodes", "3", "--out", out)


@pytest.fixture(scope="module")
def final_run(tmp_path_factory):
    """The uninterrupted run of a plan that ends on a snapshot epoch."""
    out = tmp_path_factory.mktemp("console") / "final"
    cli("train", "--config", FINAL, "--out", out)
    return out


def test_checks_and_analyze_run(tmp_path):
    cli("evader-check")
    cli("selfcheck")
    cli("analyze", "--out", tmp_path / "analyze-v1", DATA / "trajectories_v1_greedy_n3.csv")


def test_log_byte_that_is_not_utf8_is_refused(tmp_path):
    # it used to end analyze in a UnicodeDecodeError traceback
    cli("eval", "--config", TINY, "--strategy", "greedy", "--seed", "1", "--ratios", "1.2",
        "--episodes", "3", "--out", tmp_path / "eval")
    log = tmp_path / "eval" / "trajectories_ratio_1_2.csv"
    lines = log.read_bytes().splitlines(keepends=True)
    lines[4] = lines[4][:-1] + b"\xff\n"
    log.write_bytes(b"".join(lines))
    err = cli("analyze", "--out", tmp_path / "analyze", log, status=2)
    assert err == f"error: {log}: line 5: not UTF-8\n"


def test_resumes_end_on_the_uninterrupted_bytes(tmp_path):
    # a resume from the mid-run snapshot, and from the committed schema 2, 3,
    # 4 and 5 snapshots of the same run, ends on the uninterrupted run's bytes
    cli("train", "--config", TINY, "--out", tmp_path / "full")
    snapshots = {"resumed": tmp_path / "full" / "checkpoint_epoch4.json",
                 **{f"from-v{v}": DATA / f"checkpoint_v{v}" / "checkpoint_epoch4.json"
                    for v in (2, 3, 4, 5)}}
    for run, snapshot in snapshots.items():
        cli("train", "--config", TINY, "--out", tmp_path / run, "--resume", snapshot)
        same_files(tmp_path / "full", tmp_path / run, ("checkpoint.json", "checkpoint.npz"))
    # networks loaded in a fresh interpreter act alike: the uninterrupted and
    # the resumed final checkpoints write the same eval files
    for run in ("full", "resumed"):
        evaluate(TINY, tmp_path / run / "checkpoint.json", tmp_path / f"eval-{run}")
    same_files(tmp_path / "eval-full", tmp_path / "eval-resumed", EVAL_FILES)


def test_final_snapshot_is_written_once_and_resumes(final_run, tmp_path):
    # a plan that ends on a snapshot epoch writes that snapshot once, as a
    # manifest naming checkpoint.npz; resumes from it and from a mid-run
    # snapshot end on the uninterrupted run's bytes, and it evaluates as
    # checkpoint.json does
    assert not (final_run / "checkpoint_epoch6.npz").exists()
    for epoch in (3, 6):
        resumed = tmp_path / f"final-from-{epoch}"
        cli("train", "--config", FINAL, "--out", resumed,
            "--resume", final_run / f"checkpoint_epoch{epoch}.json")
        same_files(final_run, resumed, ("checkpoint.json", "checkpoint.npz"))
    same_files(final_run, tmp_path / "final-from-3", ("checkpoint_epoch6.json",))
    for ckpt in ("checkpoint_epoch6", "checkpoint"):
        evaluate(FINAL, final_run / f"{ckpt}.json", tmp_path / f"eval-{ckpt}")
    same_files(tmp_path / "eval-checkpoint_epoch6", tmp_path / "eval-checkpoint", EVAL_FILES)


def test_refused_values_exit_2_with_an_error_line(final_run, tmp_path):
    # a value refused at load, here through a CLI override
    refused("train", "--config", FINAL, "--seed", "-1", "--out", tmp_path / "bad-seed")
    # and from the file: an infinite learning rate used to load and fail at
    # the first update
    text = FINAL.read_text()
    bad_lr = text.replace('"ddpg": {', '"ddpg": {"lr_actor": Infinity, ')
    assert '"lr_actor": Infinity' in bad_lr
    (tmp_path / "bad-lr.json").write_text(bad_lr)
    refused("train", "--config", tmp_path / "bad-lr.json", "--out", tmp_path / "bad-lr")
    # a resume whose strategy observes another width than the checkpoint's
    # team used to fail with a traceback at the first learned step; a
    # refused resume leaves no output directory behind
    partial = text.replace('"strategy": "cd_ddpg"', '"strategy": "cd_ddpg_partial"')
    assert '"strategy": "cd_ddpg_partial"' in partial
    (tmp_path / "partial.json").write_text(partial)
    refused("train", "--config", tmp_path / "partial.json", "--out", tmp_path / "partial",
            "--resume", final_run / "checkpoint_epoch3.json")
    assert not (tmp_path / "partial").exists()


def edited_v4_snapshot(directory, edit):
    """The committed schema 4 snapshot with ``edit`` applied to its
    manifest, beside a copy of its sidecar."""
    directory.mkdir()
    shutil.copy(V4.with_suffix(".npz"), directory)
    doc = json.loads(V4.with_suffix(".json").read_text())
    edit(doc)
    manifest = directory / "checkpoint_epoch4.json"
    manifest.write_text(json.dumps(doc))
    return manifest


def test_broken_v4_snapshots_are_refused(tmp_path):
    # a schema 4 manifest whose array list is null used to fail with a
    # traceback
    def null_weights(doc):
        doc["agents"][1]["critic"]["weights"] = None

    # agent 1's actor second moments pointing at its weights, partly
    # negative, used to resume and fail at the first learned step
    def negative_v(doc):
        doc["agents"][1]["adam_actor"]["v_weights"][1]["offset"] = 0

    for edit in (null_weights, negative_v):
        manifest = edited_v4_snapshot(tmp_path / edit.__name__, edit)
        out = tmp_path / f"from-{edit.__name__}"
        refused("train", "--config", TINY, "--out", out, "--resume", manifest)
        assert not out.exists()


def test_paths_that_cannot_be_read_or_written_are_refused(tmp_path):
    # each used to end in an IsADirectoryError, FileExistsError or
    # NotADirectoryError traceback with exit code 1
    directory = tmp_path / "a-directory"
    directory.mkdir()
    a_file = tmp_path / "a-file"
    a_file.write_text("")
    # a directory where a file is read: refused before --out is made
    unread = {
        "log": ("analyze", directory),
        "config": ("eval", "--config", directory, "--strategy", "greedy"),
        "resume": ("train", "--config", TINY, "--resume", directory),
        "checkpoint": ("eval", "--config", TINY, "--strategy", "cd_ddpg",
                       "--checkpoint", directory),
    }
    for name, args in unread.items():
        out = tmp_path / f"out-{name}"
        refused(*args, "--out", out)
        assert not out.exists(), name
    # an --out that is, or lies under, a file
    greedy = ("eval", "--config", TINY, "--strategy", "greedy", "--ratios", "1.0",
              "--episodes", "1")
    refused(*greedy, "--out", a_file)
    refused("train", "--config", TINY, "--out", a_file)
    refused(*greedy, "--out", a_file / "sub")


def test_ratios_that_name_no_ratio_are_refused(tmp_path):
    # "," used to sweep nothing and write a header-only success.csv; "" used
    # to sweep env.velocity_ratio
    for name, ratios in (("comma", ","), ("empty", "")):
        out = tmp_path / name
        refused("eval", "--config", TINY, "--strategy", "greedy", "--ratios", ratios,
                "--episodes", "1", "--out", out)
        assert not out.exists(), name
