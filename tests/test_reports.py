"""The report writer against json's own encoder: `reports.write_json` must
write exactly the bytes of `json.dumps(obj, indent=2, sort_keys=True)`.

Derandomized and without an example database, so a run is reproducible and
writes no files.
"""

import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horocycle.reports import write_json

# quotes, backslashes, control characters, DEL and non-ASCII text, each often
texts = st.text(st.one_of(st.sampled_from('"\\\n\t\x00\x1f\x7f/é€😀'), st.characters()), max_size=8)
scalars = st.one_of(st.none(), st.booleans(), st.integers(), texts)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(texts, inner, max_size=4),
    ),
    max_leaves=24,
)


def _written(obj) -> str:
    buf = io.StringIO()
    write_json(obj, buf)
    return buf.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(values)
def test_writer_matches_json_dumps(obj):
    assert _written(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("obj", [[], {}, (), [[]], {"a": {}}, {"b": [], "a": ()}, [{}, [()]], 0, "", None])
def test_writer_matches_json_dumps_on_empty_containers(obj):
    assert _written(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "obj",
    [{1: "x"}, {"a": 1, 2: "b"}, {"a": Fraction(1, 2)}, [set()], {"a": [{"b": {1}}]}, ({"a": (Fraction(3),)},)],
)
def test_writer_rejects_what_json_cannot_write(obj):
    with pytest.raises(TypeError):
        _written(obj)
