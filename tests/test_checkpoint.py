"""The shared checkpoint container behind model.bin and agent.bin: exact
round trips and a named error for every malformed file."""
import numpy as np
import pytest

from helpers import imdb_like_graph
from rlhgnn.agent import DqnAgent, load_agent, save_agent
from rlhgnn.model import init_params, load_params, save_params


def save_model(path):
    g = imdb_like_graph(seed=3)
    save_params(init_params(g.schema, g.num_classes, 2, d=8, heads=2, dropout=0.3, seed=21), path)


def save_dqn(path):
    agent = DqnAgent.create(6, 4, buffer_capacity=20, gamma=0.9, sync_every=7,
                            reward_window=3, normalizer_fit=5, seed=2)
    agent.normalizer.transform(np.random.default_rng(0).normal(size=(5, 6)))
    agent.update_count = 9
    save_agent(agent, path, eps_position=0.4)


KINDS = {
    "model": (save_model, load_params, save_params),
    "agent": (save_dqn, load_agent, lambda a, path: save_agent(a, path, eps_position=0.4)),
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
