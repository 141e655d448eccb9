"""Argument helpers shared by the ``crisp-*`` console scripts.

Bad input ends the same way in every tool: an ``error:`` line on stderr
naming the option or path, and exit status 2 (argparse's usage-error
status), never a traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable


def job_count(text: str) -> int:
    """argparse ``type`` for ``--jobs``: 0 = one worker per CPU, N >= 1."""
    jobs = int(text)
    if jobs < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (0 = one per CPU), got {jobs}")
    return jobs


def read_input(parser: argparse.ArgumentParser, path: str,
               load: Callable[[str], Any] | None = None) -> Any:
    """``load(path)``, or by default the text of ``path`` ('-' = stdin).

    An unreadable path ends in ``parser.error``: ``error: cannot read
    PATH: ...`` and exit 2.
    """
    try:
        if load is not None:
            return load(path)
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as error:
        parser.error(f"cannot read {path}: {error}")
