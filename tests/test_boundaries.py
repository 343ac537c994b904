"""The JSON boundaries as a whole: any JSON value either loads or raises a
ValueError (SchemaError included), and every field has a rule on load."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import imdb_like_graph
from rlhgnn.agent import DqnAgent, load_agent, save_agent
from rlhgnn.cli import _load_split
from rlhgnn.model import init_params, load_params, save_params
from rlhgnn.pipeline import TrainConfig
from rlhgnn.synth import SyntheticSpec

SPEC = {
    "node_counts": {"Movie": 12, "Actor": 6, "Tag": 4},
    "relations": [["M-A", "Movie", "Actor"], ["A-T", "Actor", "Tag"]],
    "out_degree": {"M-A": 2, "A-T": 1},
    "target_type": "Movie",
    "planted_path": ["M-A"],
    "num_classes": 3,
}
NAMES = ["Movie", "Actor", "Tag", "M-A", "A-T", "x", ""]
# a value that no rule of any field accepts
UNACCEPTABLE = {"x": [None]}


def json_values(max_int=None):
    """JSON values as json.loads gives them, NaN and infinities included;
    integers are bounded where a loader sizes arrays by them."""
    ints = st.integers() if max_int is None else st.integers(-2, max_int)
    leaves = (st.none() | st.booleans() | ints | st.floats() | st.sampled_from(NAMES)
              | st.text(max_size=3))
    return st.recursive(leaves, lambda inner: st.lists(inner, max_size=4)
                        | st.dictionaries(st.sampled_from(NAMES) | st.text(max_size=3), inner,
                                          max_size=4), max_leaves=8)


def drawn_doc(base: dict, values=None):
    """base with some fields replaced by drawn JSON values, some removed and
    some unknown ones added; or, now and then, a whole other JSON value."""
    values = json_values() if values is None else values
    edits = st.dictionaries(st.sampled_from(sorted(base) + ["extra"]), values, max_size=3)
    drops = st.sets(st.sampled_from(sorted(base)), max_size=2)
    edited = st.builds(lambda e, d: {k: v for k, v in {**base, **e}.items() if k not in d},
                       edits, drops)
    return st.one_of(edited, edited, edited, json_values())


def loads_or_raises_value_error(load, *args):
    try:
        load(*args)
    except ValueError:
        pass


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(drawn_doc(TrainConfig(hidden_dim=16, heads=2).to_dict()))
def test_any_json_config_loads_or_raises_a_value_error(doc):
    loads_or_raises_value_error(TrainConfig.from_dict, doc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(drawn_doc(SPEC))
def test_any_json_spec_loads_or_raises_a_value_error(doc):
    loads_or_raises_value_error(SyntheticSpec.from_dict, doc)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(drawn_doc({"train": [0, 1], "validation": [2], "test": [3, 4]}))
def test_any_json_split_loads_or_raises_a_value_error(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "split.json"
    path.write_text(json.dumps(doc))
    loads_or_raises_value_error(_load_split, path, np.zeros(6, dtype=np.int64))


def save_model(path):
    g = imdb_like_graph(seed=3)
    save_params(init_params(g.schema, g.num_classes, 2, d=8, heads=2, dropout=0.3, seed=21), path)


def save_dqn(path):
    agent = DqnAgent.create(6, 4, buffer_capacity=20, normalizer_fit=5, seed=2)
    save_agent(agent, path, eps_position=0.4)


CHECKPOINTS = {"model": (save_model, load_params), "agent": (save_dqn, load_agent)}


def split_checkpoint(path) -> tuple[dict, bytes]:
    line, blob = path.read_bytes().split(b"\n", 1)
    return json.loads(line), blob


def with_header(path, header: dict, blob: bytes) -> None:
    path.write_bytes(json.dumps(header).encode() + b"\n" + blob)


def schema_values():
    """The model header's schema, or its fields, drawn: valid ones, their
    near misses and other JSON values."""
    names = st.lists(st.sampled_from(NAMES), max_size=3)
    return json_values() | st.fixed_dictionaries({}, optional={
        "node_types": names | json_values(),
        "relation_types": st.lists(names, max_size=3) | json_values(),
        "attribute_dims": st.dictionaries(st.sampled_from(NAMES), json_values(8), max_size=3),
    })


@pytest.mark.parametrize("which", sorted(CHECKPOINTS))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_any_json_checkpoint_header_field_loads_or_raises_a_value_error(tmp_path_factory, which,
                                                                        data):
    """One header field at a time, so that the later fields are reached."""
    save, load = CHECKPOINTS[which]
    path = tmp_path_factory.getbasetemp() / f"{which}.bin"
    save(path)
    header, blob = split_checkpoint(path)
    name = data.draw(st.sampled_from(sorted(header)))
    value = data.draw(schema_values() if name == "schema" else json_values(max_int=64))
    with_header(path, {**header, name: value}, blob)
    loads_or_raises_value_error(load, path)


@pytest.mark.parametrize("cls,base", [(TrainConfig, {}), (SyntheticSpec, SPEC)])
def test_every_dataclass_field_has_a_rule_on_load(cls, base):
    for name in cls.__dataclass_fields__:
        with pytest.raises(ValueError, match=f"^{name} must be "):
            cls.from_dict({**base, name: UNACCEPTABLE})


@pytest.mark.parametrize("which", sorted(CHECKPOINTS))
def test_every_header_field_written_has_a_rule_on_load(tmp_path, which):
    save, load = CHECKPOINTS[which]
    path = tmp_path / "c.bin"
    save(path)
    header, blob = split_checkpoint(path)
    for name in sorted(set(header) - {"kind"}):  # a wrong kind is named on its own
        with_header(path, {k: v for k, v in header.items() if k != name}, blob)
        with pytest.raises(ValueError) as err:
            load(path)
        assert str(err.value) == f"{path}: checkpoint header lacks field {name!r}"
        with_header(path, {**header, name: UNACCEPTABLE}, blob)
        with pytest.raises(ValueError) as err:
            load(path)
        assert str(err.value).startswith(f"{path}: checkpoint header field {name!r} ")
