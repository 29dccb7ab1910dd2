"""Crash-safe output files, and the one way a number is read from text input."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

from .errors import ConfigurationError


@contextmanager
def atomic_write(path, mode="w"):
    """Open ``path`` for writing; the file appears only when the block completes.

    ``mode`` is ``"w"`` for text (the reports, loss histories and
    datasets) or ``"wb"`` for bytes (the binary checkpoints). Output goes
    to a temp file in the same directory, and ``os.replace``
    moves it onto ``path`` once the block has finished, so a killed or
    failing writer never leaves a truncated file at ``path``. If the
    block raises, the temp file is removed and ``path`` is untouched.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open(mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def output_dir(path) -> Path:
    """Create directory ``path`` and its parents if missing, and return it.

    A path that exists as a file, or under a file, raises
    :class:`ConfigurationError` naming it.
    """
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot use {path} as an output directory: "
                                 f"{exc.strerror}") from None
    return path


def plain_number(text: str, cast=int):
    """``cast(text)`` for a number written in ASCII without underscores.

    ``int()`` and ``float()`` also read other digits and underscores
    (``"\u0663"`` as 3, ``"1_0"`` as 10); text holding either raises
    ``ValueError``, as text that ``cast`` refuses does. Every text input
    reads its numbers through this rule: dataset files, config files,
    ``--pairs``, ``--seeds`` and checkpoint entry lines.
    """
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a plain ASCII number: {text!r}")
    return cast(text)
