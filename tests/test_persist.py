import json

import numpy as np
import pytest

from marketgen import gan
from marketgen import neuralnet as nn
from marketgen import persist
from marketgen import preprocess as pp
from marketgen import rbm
from marketgen.datagen import RngStream
from marketgen.errors import InvalidValue, VersionError
from marketgen.frames import frame_from_columns


def test_rbm_roundtrip_behavior(tmp_path):
    frame = frame_from_columns({"a": np.random.default_rng(0).normal(size=50)})
    spec = pp.fit_zscore(frame)
    model = rbm.init_rbm("gaussian", 1, 6, rng=RngStream(1, 0), transform=spec)
    path = tmp_path / "model.json"
    persist.save_model(path, model, transforms=(spec,))
    loaded, transforms = persist.load_model(path)
    assert loaded.kind == "gaussian"
    assert transforms[0].kind == "zscore"
    a = rbm.sample(model, 20, 5, RngStream(2, 0))
    b = rbm.sample(loaded, 20, 5, RngStream(2, 0))
    np.testing.assert_array_equal(a.data, b.data)


def test_conditional_rbm_roundtrip(tmp_path):
    model = rbm.init_rbm("conditional", 2, 4, d=3, rng=RngStream(3, 0))
    path = tmp_path / "crbm.json"
    persist.save_model(path, model)
    loaded, _ = persist.load_model(path)
    np.testing.assert_array_equal(loaded.Q, model.Q)
    np.testing.assert_array_equal(loaded.P, model.P)
    a = rbm.generate_series(model, np.zeros((3, 2)), 7, 3, RngStream(4, 0))
    b = rbm.generate_series(loaded, np.zeros((3, 2)), 7, 3, RngStream(4, 0))
    np.testing.assert_array_equal(a.data, b.data)


def test_gan_roundtrip_behavior(tmp_path):
    rng = RngStream(5, 0).generator()
    cfg = gan.GanConfig(mode="wgan_gp", noise_dim=8, seed=0)
    generator, critic = gan.build_wgan_nets(3, cfg, rng, gen_hidden=(10, 5),
                                            critic_hidden=(6,))
    bundle = persist.GanModel("wgan", "wgan_gp", 8, generator, critic,
                              gan.ConditionSpec("none"), ("a", "b", "c"))
    path = tmp_path / "wgan.json"
    persist.save_model(path, bundle)
    loaded, transforms = persist.load_model(path)
    assert transforms == ()
    a = gan.generate(generator, 9, RngStream(6, 0), noise_dim=8)
    b = gan.generate(loaded.generator, 9, RngStream(6, 0), noise_dim=8)
    np.testing.assert_array_equal(a.data, b.data)


def test_cdcwgan_condition_roundtrip(tmp_path):
    rng = RngStream(7, 0).generator()
    cfg = gan.GanConfig(mode="wgan_gp", noise_dim=8, seed=0)
    generator, critic = gan.build_cdcwgan_nets(2, 5, 20, cfg, rng,
                                               critic_filters=(4, 8, 8, 16),
                                               gen_channels=(16, 8))
    condition = gan.ConditionSpec("history_window", n_h=20, n_x=2, n_t=5, layout="time")
    bundle = persist.GanModel("cdcwgan", "wgan_gp", 8, generator, critic,
                              condition, ("x", "y"))
    path = tmp_path / "cdcwgan.json"
    persist.save_model(path, bundle)
    loaded, _ = persist.load_model(path)
    assert loaded.condition == condition
    seed_window = np.random.default_rng(8).random((20, 2))
    a = gan.generate_series_gan(generator, condition, seed_window, 12, RngStream(9, 0), noise_dim=8)
    b = gan.generate_series_gan(loaded.generator, loaded.condition, seed_window, 12,
                                RngStream(9, 0), noise_dim=8)
    np.testing.assert_array_equal(a.data, b.data)


def test_transform_spec_roundtrip(tmp_path):
    frame = frame_from_columns({"a": [1.0, 5.0, 3.0], "b": [-1.0, 0.0, 2.0]})
    for kind in ("minmax", "zscore", "normal_score", "binarize16"):
        spec = pp.fit_transform_spec(kind, frame)
        doc = persist.transform_to_doc(spec)
        back = persist.transform_from_doc(json.loads(json.dumps(doc)))
        assert back.kind == spec.kind
        assert back.columns == spec.columns
        for field in ("lo", "hi", "mean", "std", "reference"):
            a, b = getattr(spec, field), getattr(back, field)
            if a is None:
                assert b is None
            else:
                np.testing.assert_array_equal(a, b)


def test_version_check(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format_version": 99, "kind": "gaussian"}))
    with pytest.raises(VersionError):
        persist.load_model(path)


def test_nonfinite_rejected(tmp_path):
    model = rbm.init_rbm("bernoulli", 2, 2, rng=RngStream(10, 0))
    doc = persist.rbm_to_doc(model)
    doc["W"][0][0] = None  # json null -> nan
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidValue):
        persist.load_model(path)


def test_atomic_write_leaves_no_temp(tmp_path):
    model = rbm.init_rbm("bernoulli", 2, 2, rng=RngStream(11, 0))
    path = tmp_path / "m.json"
    persist.save_model(path, model)
    assert path.exists()
    assert list(tmp_path.glob("*.tmp")) == []


def test_save_leaves_foreign_temp_name_alone(tmp_path):
    model = rbm.init_rbm("bernoulli", 2, 2, rng=RngStream(11, 0))
    path = tmp_path / "m.json"
    (tmp_path / "m.json.tmp").mkdir()
    persist.save_model(path, model)
    assert persist.load_model(path)[0].kind == "bernoulli"
    assert (tmp_path / "m.json.tmp").is_dir()


def test_failed_save_leaves_no_temp(tmp_path):
    path = tmp_path / "doc.json"
    with pytest.raises(TypeError):
        persist.save_document({"kind": "rbm", "bad": object()}, path)
    assert list(tmp_path.iterdir()) == []


def test_save_is_deterministic(tmp_path):
    model = rbm.init_rbm("gaussian", 2, 3, rng=RngStream(12, 0))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    persist.save_model(p1, model)
    persist.save_model(p2, model)
    assert p1.read_bytes() == p2.read_bytes()
