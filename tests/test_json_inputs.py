"""Every JSON input (prior file, run config, posterior) is read by one function,
``errors.json_object``: whatever it is given, it returns an object or raises
InputError, and no other module decodes JSON that a user supplies."""

import ast
import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import treegress
from treegress.errors import InputError, json_object

SRC = Path(treegress.__file__).resolve().parent  # the package under test, wherever it is
KEYS = {"name": (str,), "n": (int,), "x": (float,), "items": (list, float, str),
        "sub": (dict, dict), "any": None}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(sorted(KEYS)) | st.text(max_size=3), inner, max_size=4),
    max_leaves=12)
deep_nests = st.integers(0, 200_000).map(lambda n: "[" * n + "]" * n)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.one_of(json_values, json_values.map(json.dumps), st.text(), deep_nests),
       st.sampled_from([(), ("name",), ("n", "x")]))
def test_any_value_or_text_gives_a_checked_object_or_an_input_error(source, required):
    try:
        doc = json_object(source, "input", KEYS, required)
    except InputError as exc:
        assert str(exc).startswith("input: ")
        return
    assert type(doc) is dict and set(required) <= set(doc) <= set(KEYS)
    for key, value in doc.items():
        if KEYS[key]:  # a float key admits an int, as a JSON number; no key admits a bool
            assert type(value) in {float: (int, float)}.get(KEYS[key][0], KEYS[key][:1])


# where JSON that a user supplies may be decoded: the one checked reader, the posterior
# reader's fast path (its fallback is json.loads too), and the shipped prior files
DECODERS = {("errors", "json_object"), ("inference", "_load_posterior"),
            ("experiments", "prior_documents")}


def test_json_is_decoded_only_by_the_checked_reader():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                loads = (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                         and isinstance(node.value, ast.Name) and node.value.id == "json")
                imports = (isinstance(node, ast.ImportFrom) and node.module == "json"
                           and {a.name for a in node.names} & {"load", "loads"})
                if loads or imports:
                    found.add((path.stem, getattr(top, "name", None)))
    assert found == DECODERS
