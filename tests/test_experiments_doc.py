"""EXPERIMENTS.md quotes the committed benchmark outputs verbatim.

``benchmarks/out/*.txt`` is the one record of the modelled numbers
(CI's ``paper-outputs`` job regenerates it and fails on any byte of
drift), so each table the document shows must be the file itself,
fenced, never a hand copy.
"""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
QUOTED = ("table_1", "section_4", "figure_4", "table_2", "table_3",
          "figure_5", "cross_device")


def _fenced_blocks(text):
    return re.findall(r"^```\n(.*?)^```$", text, flags=re.M | re.S)


@pytest.mark.parametrize("name", QUOTED)
def test_experiments_quotes_the_committed_output(name):
    blocks = _fenced_blocks((ROOT / "EXPERIMENTS.md").read_text())
    output = (ROOT / "benchmarks" / "out" / f"{name}.txt").read_text()
    assert output in blocks, f"EXPERIMENTS.md does not quote {name}.txt"
