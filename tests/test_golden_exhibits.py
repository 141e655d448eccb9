"""Byte-for-byte pins of the paper's exhibits.

A kernel change must leave every simulated statistic exactly as it was,
so the stdout of ``crisp-eval table4 --json`` and ``crisp-eval dynfold``
is compared with the committed ``tests/golden/`` files byte for byte —
tighter than the ``crisp-obs gate`` step, which tolerates a 2 % change
in fold rate, CPI and prediction accuracy. Regenerate a file only when
a change is meant to move the exhibit::

    PYTHONPATH=src python -m repro.eval.cli table4 --json \
        > tests/golden/table4.json
    PYTHONPATH=src python -m repro.eval.cli dynfold > tests/golden/dynfold.txt
"""

from pathlib import Path

import pytest

from repro.eval.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv, golden", [
    (["table4", "--json"], "table4.json"),
    (["dynfold"], "dynfold.txt"),
], ids=["table4-json", "dynfold"])
def test_exhibit_stdout_is_byte_identical(argv, golden, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()
