"""The package's UTF-8 text files: the float format every table writes, and
reading the files line by line, as their readers do."""

from __future__ import annotations

import io
from pathlib import Path
from typing import Callable

# Format of every float a CSV holds: 9 significant digits.
FLOAT_FORMAT = ".9g"


def read_lines(path: Path, refuse: Callable[[int], Exception]) -> list[str]:
    """The lines of a UTF-8 file, as iterating it in text mode gives them.

    Newlines are universal (``\\r\\n`` and ``\\r`` read as ``\\n``) and lines
    break at ``\\n`` only, as ``np.loadtxt`` and file iteration break them,
    not at the other breaks of ``str.splitlines``. Each line keeps its
    ``\\n``; a last line without one is torn. A byte that is not UTF-8
    raises ``refuse(k)``, k the number of its line.
    """
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = io.StringIO(data[: exc.start].decode("utf-8"), newline=None).read()
        raise refuse(before.count("\n") + 1) from None
    return io.StringIO(text, newline=None).readlines()
