"""The shared checkpoint container behind model.bin and agent.bin: exact
round trips and a named error for every malformed file."""
import json
import tracemalloc

import numpy as np
import pytest

from helpers import imdb_like_graph
from rlhgnn.agent import DqnAgent, load_agent, save_agent
from rlhgnn.checkpoint import read_checkpoint, write_checkpoint
from rlhgnn.model import init_params, load_params, save_params


def save_model(path):
    g = imdb_like_graph(seed=3)
    save_params(init_params(g.schema, g.num_classes, 2, d=8, heads=2, dropout=0.3, seed=21), path)


def save_dqn(path):
    agent = DqnAgent.create(6, 4, buffer_capacity=20, gamma=0.9, sync_every=7,
                            reward_window=3, normalizer_fit=5, seed=2)
    agent.normalizer.transform(np.random.default_rng(0).normal(size=(5, 6)))
    agent.update_count, agent.eps_position = 9, 0.4
    save_agent(agent, path)


KINDS = {
    "model": (save_model, load_params, save_params),
    "agent": (save_dqn, load_agent, save_agent),
}


@pytest.fixture(params=sorted(KINDS))
def kind(request):
    return KINDS[request.param]


def test_saving_a_loaded_checkpoint_gives_identical_bytes(tmp_path, kind):
    save, load, resave = kind
    first, second = tmp_path / "a.bin", tmp_path / "b.bin"
    save(first)
    resave(load(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_trailing_bytes_are_rejected(tmp_path, kind):
    save, load, _ = kind
    path = tmp_path / "c.bin"
    save(path)
    size = len(path.read_bytes())
    with open(path, "ab") as f:
        f.write(b"\0" * 8)
    header_len = path.read_bytes().index(b"\n") + 1
    expected = size - header_len
    with pytest.raises(ValueError, match=rf"exactly {expected} bytes .* found {expected + 8}") as e:
        load(path)
    assert str(path) in str(e.value)


def test_truncated_file_is_rejected(tmp_path, kind):
    save, load, _ = kind
    path = tmp_path / "c.bin"
    save(path)
    data = path.read_bytes()
    path.write_bytes(data[:-3])
    expected = len(data) - (data.index(b"\n") + 1)
    with pytest.raises(ValueError, match=rf"exactly {expected} bytes .* found {expected - 3}"):
        load(path)


def test_missing_header_newline_is_rejected(tmp_path, kind):
    save, load, _ = kind
    path = tmp_path / "c.bin"
    save(path)
    path.write_bytes(path.read_bytes().split(b"\n", 1)[0])
    with pytest.raises(ValueError, match="not terminated by a newline"):
        load(path)


def test_wrong_kind_is_rejected(tmp_path):
    model, agent = tmp_path / "model.bin", tmp_path / "agent.bin"
    save_model(model)
    save_dqn(agent)
    with pytest.raises(ValueError, match="expected a 'dqn-agent' checkpoint, got kind 'hgnn-params'"):
        load_agent(model)
    with pytest.raises(ValueError, match="expected a 'hgnn-params' checkpoint, got kind 'dqn-agent'"):
        load_params(agent)


def rewrite_arrays(path, edit):
    """Write the checkpoint at `path` again, unchanged but for its arrays,
    which `edit` maps from one (name, array) list to another."""
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    kind = header.pop("kind")
    del header["dtype"], header["arrays"]
    _, arrays = read_checkpoint(path, kind)
    write_checkpoint(path, kind, header, edit(list(arrays.items())))


# per kind: a name to drop, and a name with a wrong shape and its real shape
BAD_ARRAYS = {
    "model": ("layer1:W", "layer0:W", (4, 4), (8, 8)),
    "agent": ("target:3", "q:0", (3, 32), (6, 32)),
}


@pytest.mark.parametrize("case", ["missing", "extra", "misshapen", "duplicate"])
@pytest.mark.parametrize("which", sorted(KINDS))
def test_arrays_not_matching_the_header_are_rejected_naming_the_file(tmp_path, which, case):
    save, load, _ = KINDS[which]
    dropped, reshaped, bad_shape, shape = BAD_ARRAYS[which]
    path = tmp_path / "c.bin"
    save(path)
    edit, message = {
        "missing": (lambda arrs: [(n, a) for n, a in arrs if n != dropped],
                    f"checkpoint lacks array(s) {dropped}"),
        "extra": (lambda arrs: arrs + [("extra", np.zeros((1, 1)))],
                  "checkpoint has unexpected array(s) extra"),
        "misshapen": (lambda arrs: [(n, np.zeros(bad_shape) if n == reshaped else a)
                                    for n, a in arrs],
                      f"array {reshaped} has shape {bad_shape}, expected {shape}"),
        "duplicate": (lambda arrs: arrs + arrs[-1:], "checkpoint names an array more than once"),
    }[case]
    rewrite_arrays(path, edit)
    with pytest.raises(ValueError) as err:
        load(path)
    assert str(err.value) == f"{path}: {message}"


def test_agent_arrays_are_checked_against_the_header_before_any_network_is_built(tmp_path):
    """A 6-feature agent whose header claims 20,000 features is rejected
    without allocating the two Q-networks and Adam state the header
    describes (~30 MiB)."""
    path = tmp_path / "agent.bin"
    save_agent(DqnAgent.create(6, 4, buffer_capacity=20, seed=2), path)
    rewrite_header(path, setting("input_dim", 20000))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            load_agent(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == f"{path}: array q:0 has shape (6, 32), expected (20000, 32)"
    assert peak < 4 * 2**20


def rewrite_header(path, edit):
    """Replace the header line of the checkpoint at `path` by edit(header)
    serialized as JSON, or by the bytes edit returns; keep the arrays."""
    line, blob = path.read_bytes().split(b"\n", 1)
    new = edit(json.loads(line))
    path.write_bytes((new if isinstance(new, bytes) else json.dumps(new).encode()) + b"\n" + blob)


def without(key):
    return lambda h: {k: v for k, v in h.items() if k != key}


def setting(key, value):
    return lambda h: {**h, key: value}


def with_movie_dim(value):
    """Set the Movie attribute dim of the header's schema to value."""
    return lambda h: {**h, "schema": {**h["schema"], "attribute_dims": {
        **h["schema"]["attribute_dims"], "Movie": value}}}


def with_array(shape):
    """Add an array entry of that shape to the header's list."""
    return lambda h: {**h, "arrays": h["arrays"] + [{"name": "x", "shape": shape}]}


# per kind: case name -> (header edit, the error message after "<path>: ")
BAD_HEADERS = {
    "model": {
        "not-object": (lambda h: [1, 2], "checkpoint header must be a JSON object, got list"),
        "not-json": (lambda h: b"{", "checkpoint header is not JSON"),
        "missing-T": (without("T"), "checkpoint header lacks field 'T'"),
        "string-T": (setting("T", "2"),
                     "checkpoint header field 'T' must be an integer >= 1, got '2'"),
        "zero-heads": (setting("heads", 0),
                       "checkpoint header field 'heads' must be an integer >= 1, got 0"),
        "dropout-1": (setting("dropout", 1.0),
                      "checkpoint header field 'dropout' must be a number in [0, 1)"),
        "indivisible": (setting("heads", 3), "checkpoint header field 'd' (8) must be "
                                             "divisible by field 'heads' (3)"),
        "missing-schema": (without("schema"), "checkpoint header lacks field 'schema'"),
        "bad-schema": (setting("schema", {"node_types": []}),
                       "checkpoint header field 'schema' is not a graph schema"),
        "bad-arrays": (setting("arrays", [{"name": "x"}]),
                       "checkpoint header field 'arrays' must be a list"),
        "float-dim": (with_movie_dim(2.5),
                      "checkpoint header field 'schema' is not a graph schema"),
        "bool-dim": (with_movie_dim(True),
                     "checkpoint header field 'schema' is not a graph schema"),
        "string-dim": (with_movie_dim("2"),
                       "checkpoint header field 'schema' is not a graph schema"),
        "float32": (setting("dtype", "float32"),
                    "checkpoint header field 'dtype' must be \"float64\", got 'float32'"),
        "int64-wrapping-shape": (with_array([2**32, 2**32]), "checkpoint arrays need exactly"),
    },
    "agent": {
        "not-object": (lambda h: "agent", "checkpoint header must be a JSON object, got str"),
        "missing-input-dim": (without("input_dim"),
                              "checkpoint header lacks field 'input_dim'"),
        "bad-hidden": (setting("hidden", [32, "x"]),
                       "checkpoint header field 'hidden' must be a list of integers >= 1"),
        "null-gamma": (setting("gamma", None),
                       "checkpoint header field 'gamma' must be a number, got None"),
        "missing-normalizer": (without("normalizer"),
                               "checkpoint header lacks field 'normalizer'"),
        "short-mean": (lambda h: {**h, "normalizer": {**h["normalizer"], "mean": [0.0]}},
                       "checkpoint header field 'normalizer' must be null or {fit_count: an "
                       "integer >= 1, mean and std: both null or both a list of 6 numbers}"),
        "float32": (setting("dtype", "float32"),
                    "checkpoint header field 'dtype' must be \"float64\", got 'float32'"),
        "missing-eps-position": (without("eps_position"),
                                 "checkpoint header lacks field 'eps_position'"),
        "eps-position-above-1": (setting("eps_position", 1.5), "checkpoint header field "
                                 "'eps_position' must be a number in [0, 1], got 1.5"),
        "string-eps-position": (setting("eps_position", "0.4"), "checkpoint header field "
                                "'eps_position' must be a number in [0, 1], got '0.4'"),
        "int64-wrapping-shape": (with_array([2**32, 2**32]), "checkpoint arrays need exactly"),
    },
}


@pytest.mark.parametrize("which,case", [(w, c) for w in sorted(BAD_HEADERS)
                                        for c in BAD_HEADERS[w]])
def test_bad_header_fields_are_rejected_naming_the_file_and_the_field(tmp_path, which, case):
    save, load, _ = KINDS[which]
    edit, message = BAD_HEADERS[which][case]
    path = tmp_path / "c.bin"
    save(path)
    rewrite_header(path, edit)
    with pytest.raises(ValueError) as err:
        load(path)
    assert str(err.value).startswith(f"{path}: {message}")
