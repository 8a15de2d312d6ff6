"""Fuzz tests of every input-file reader: a reader either returns or raises
DataFormatError, whatever bytes it is given."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from kegat.errors import DataFormatError
from kegat.gat import load_concept_table
from kegat.harness import load_comve
from kegat.kemb import load_templates
from kegat.kgstore import load_graph

from conftest import SUGAR_KB_ROWS


_JSONL_B = "".join(json.dumps({
    "id": str(i), "false_sent": "he put coffee in sugar",
    "optionA": "sugar is sweet", "optionB": "coffee is a drink",
    "optionC": "cups hold coffee", "label": i % 3}) + "\n" for i in range(2))

# reader name -> (read a path, a valid file, bytes before the part worth nesting)
READERS = {
    "load_graph": (load_graph, "".join(
        f"{h}\t{r}\t{t}\t{w}\n" for h, r, t, w in SUGAR_KB_ROWS).encode(), b""),
    "load_comve": (lambda p: load_comve(p, "b"), _JSONL_B.encode(), b""),
    "load_concept_table": (lambda p: load_concept_table(p, 3),
                           b"2 2\nsugar 0.5 -1.0\ncoffee 1e-3 2\n", b""),
    "load_templates": (load_templates,
                       b'{"/r/IsA": "{head} is a {tail}"}', b""),
}


def _damaged(valid: bytes):
    """`valid` cut at some point, with up to four bytes XOR-flipped."""
    flips = st.lists(st.tuples(st.integers(0, len(valid) - 1),
                               st.integers(1, 255)), max_size=4)

    def damage(args):
        cut, flipped = args
        raw = bytearray(valid)
        for at, mask in flipped:
            raw[at] ^= mask
        return bytes(raw[:cut])
    return st.tuples(st.integers(0, len(valid)), flips).map(damage)


@pytest.mark.parametrize("name", sorted(READERS))
@given(data=st.data())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_reader_returns_or_raises_data_error(name, data):
    read, valid, nest_prefix = READERS[name]
    raw = data.draw(st.one_of(
        st.binary(max_size=200), _damaged(valid),
        st.just(nest_prefix + b"[" * 100_000)), label="file")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(raw)
        try:
            read(path)
        except DataFormatError:
            pass


@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_accepts_its_valid_file(name):
    read, valid, _ = READERS[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(valid)
        assert read(path)
