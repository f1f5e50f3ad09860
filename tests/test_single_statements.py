"""Rules the package states once are written once in its source.

Each folded rule has one statement that every caller uses: the canonical
decimal index, the text of a word's letters, the homotopy's and the
cochain's arity messages, the text of a cochain key and the alphabet of a
derivation's generator values.  A second copy of one of them in
``src/ncdisc`` fails here.
"""

from pathlib import Path

import pytest

import ncdisc
from ncdisc.cohomology import _CutCodes

SOURCES = sorted(Path(ncdisc.__file__).parent.glob("*.py"))


@pytest.mark.parametrize(
    "rule",
    [
        "0|[1-9][0-9]*",  # words._INDEX
        '"z" + "z".join(map(str, ',  # words._text
        '"homotopy needs arity at least 2"',  # cohomology._check_homotopy_arity
        '"arity must be nonnegative"',  # cohomology._check_arity
        "', '.join(",  # cohomology._key_text
        '"generator value over a different alphabet"',  # GeneratorDerivation.__init__
    ],
)
def test_each_folded_rule_is_written_once(rule):
    assert SOURCES
    assert sum(path.read_text(encoding="utf-8").count(rule) for path in SOURCES) == 1


def test_cut_codes_hold_no_texts():
    # the text of a string is derived by words._text when it is written
    assert "texts" not in _CutCodes._fields
