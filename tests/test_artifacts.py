import json
import os

import numpy as np
import pytest

from evoadapt import policy as policy_module
from evoadapt.artifacts import replace_atomically, write_csv
from evoadapt.observe import ObservationSpec
from evoadapt.policy import PolicyNet, load_checkpoint, save_checkpoint


class Interrupted(Exception):
    pass


def test_writer_failing_midway_leaves_previous_file_and_no_temp(tmp_path):
    path = tmp_path / "metrics.csv"
    write_csv(path, [["run", "auc"], [0, "1.5"]])
    before = path.read_bytes()

    def rows():
        yield ["run", "auc"]
        yield [0, "2.5"]
        raise Interrupted

    with pytest.raises(Interrupted):
        write_csv(path, rows())
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["metrics.csv"]


def test_first_write_failing_leaves_nothing(tmp_path):
    path = tmp_path / "sub" / "comparison_best.json"
    with pytest.raises(Interrupted):
        with replace_atomically(path) as fh:
            fh.write("{")
            raise Interrupted
    assert os.listdir(tmp_path / "sub") == []


def test_checkpoint_interrupted_mid_dump_keeps_the_old_one(tmp_path, monkeypatch):
    path = tmp_path / "checkpoint.json"
    obs_spec = ObservationSpec(history_length=4)
    old = PolicyNet(obs_spec.length(2), 2, hidden=(3,), rng=np.random.default_rng(0))
    save_checkpoint(path, old, "de_direct", obs_spec)
    before = path.read_bytes()

    def dump_then_die(doc, fh):
        fh.write(json.dumps(doc)[:20])
        raise Interrupted

    monkeypatch.setattr(policy_module.json, "dump", dump_then_die)
    new = PolicyNet(obs_spec.length(2), 2, hidden=(3,), rng=np.random.default_rng(1))
    with pytest.raises(Interrupted):
        save_checkpoint(path, new, "de_direct", obs_spec)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["checkpoint.json"]
    assert np.array_equal(load_checkpoint(path)[0].mlp.weights[0], old.mlp.weights[0])
