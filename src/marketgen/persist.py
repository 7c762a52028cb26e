"""Versioned model documents.

One human-readable JSON format with an explicit ``format_version`` covers
transform specs, RBMs, layer stacks and GAN bundles.  Documents embed the
fitted preprocessing chain so that generation from a loaded model is
self-contained.  Writes go through ``frames.atomic_write``; loading
validates shapes and finiteness through the ordinary constructors, and
``load_model`` turns a document that is not JSON, not an object or lacks or
mistypes a field into ``InvalidValue``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import neuralnet as nn
from .errors import InvalidValue, VersionError
from .frames import atomic_write
from .gan import ConditionSpec
from .preprocess import TransformSpec
from .rbm import RBM_KINDS, RbmModel

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _arr(x):
    return None if x is None else np.asarray(x).tolist()


def _np(x, dtype=float):
    return None if x is None else np.asarray(x, dtype=dtype)


def save_document(doc: dict, path) -> None:
    doc = dict(doc)
    doc.setdefault("format_version", FORMAT_VERSION)
    atomic_write(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")


def load_document(path) -> dict:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # invalid JSON or text encoding
            raise InvalidValue(f"{path} is not a JSON document: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidValue(f"{path} holds a JSON {type(doc).__name__}, not an object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise VersionError(f"unsupported format_version {version!r}")
    return doc


# ---------------------------------------------------------------------------
# transform specs
# ---------------------------------------------------------------------------

def transform_to_doc(spec: TransformSpec) -> dict:
    return {
        "kind": spec.kind,
        "columns": list(spec.columns),
        "lo": _arr(spec.lo),
        "hi": _arr(spec.hi),
        "mean": _arr(spec.mean),
        "std": _arr(spec.std),
        "reference": _arr(spec.reference),
        "epsilon": spec.epsilon,
    }


def transform_from_doc(doc: dict) -> TransformSpec:
    return TransformSpec(
        doc["kind"], tuple(doc["columns"]),
        lo=_np(doc.get("lo")), hi=_np(doc.get("hi")),
        mean=_np(doc.get("mean")), std=_np(doc.get("std")),
        reference=_np(doc.get("reference")), epsilon=doc.get("epsilon", 0.0),
    )


# ---------------------------------------------------------------------------
# RBM documents
# ---------------------------------------------------------------------------

def rbm_to_doc(model: RbmModel, transforms=()) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "m": model.m,
        "n": model.n,
        "d": model.d,
        "a": _arr(model.a),
        "b": _arr(model.b),
        "W": _arr(model.W),
        "sigma": _arr(model.sigma),
        "P": _arr(model.P),
        "Q": _arr(model.Q),
        "transform": None if model.transform is None else transform_to_doc(model.transform),
        "transforms": [transform_to_doc(t) for t in transforms],
    }


def rbm_from_doc(doc: dict):
    transform = doc.get("transform")
    model = RbmModel(
        doc["kind"], int(doc["m"]), int(doc["n"]),
        _np(doc["a"]), _np(doc["b"]), _np(doc["W"]),
        sigma=_np(doc.get("sigma")), d=int(doc.get("d", 0)),
        Q=_np(doc.get("Q")), P=_np(doc.get("P")),
        transform=None if transform is None else transform_from_doc(transform),
    )
    transforms = tuple(transform_from_doc(t) for t in doc.get("transforms", []))
    return model, transforms


# ---------------------------------------------------------------------------
# layer stacks and GAN bundles
# ---------------------------------------------------------------------------

def _activation_doc(act: nn.Activation) -> dict:
    return {"kind": act.kind, "alpha": act.alpha}


def _activation_from(doc: dict) -> nn.Activation:
    return nn.Activation(doc["kind"], doc.get("alpha", 0.01))


def stack_to_doc(stack: nn.LayerStack) -> dict:
    layers = []
    for layer in stack.layers:
        entry = {
            "W": _arr(layer.W),
            "b": _arr(layer.b),
            "activation": _activation_doc(layer.activation),
        }
        if isinstance(layer, nn.Dense):
            entry["layer"] = "dense"
            entry["reshape_to"] = list(layer.reshape_to) if layer.reshape_to else None
        elif isinstance(layer, nn.Conv1d):
            entry["layer"] = "conv1d"
            entry["stride"] = layer.stride
            entry["padding"] = layer.padding
        elif isinstance(layer, nn.TConv1d):
            entry["layer"] = "tconv1d"
            entry["stride"] = layer.stride
            entry["padding"] = layer.padding
        else:
            raise InvalidValue(f"cannot persist layer type {type(layer).__name__}")
        layers.append(entry)
    return {"kind": "layer_stack", "layers": layers}


def stack_from_doc(doc: dict) -> nn.LayerStack:
    layers = []
    for entry in doc["layers"]:
        W = _np(entry["W"])
        b = _np(entry["b"])
        if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
            raise InvalidValue("layer parameters contain non-finite values")
        act = _activation_from(entry["activation"])
        if entry["layer"] == "dense":
            reshape = entry.get("reshape_to")
            layers.append(nn.Dense(W, b, act, tuple(reshape) if reshape else None))
        elif entry["layer"] == "conv1d":
            layers.append(nn.Conv1d(W, b, int(entry["stride"]), int(entry["padding"]), act))
        elif entry["layer"] == "tconv1d":
            layers.append(nn.TConv1d(W, b, int(entry["stride"]), int(entry["padding"]), act))
        else:
            raise InvalidValue(f"unknown layer kind {entry['layer']!r}")
    return nn.LayerStack(layers)


@dataclass
class GanModel:
    """A trained adversarial pair plus everything needed to generate."""

    kind: str  # "gan" | "wgan" | "cdcwgan"
    mode: str
    noise_dim: int
    generator: nn.LayerStack
    critic: nn.LayerStack
    condition: ConditionSpec
    columns: tuple


def gan_to_doc(model: GanModel, transforms=()) -> dict:
    c = model.condition
    return {
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "mode": model.mode,
        "noise_dim": model.noise_dim,
        "generator": stack_to_doc(model.generator),
        "critic": stack_to_doc(model.critic),
        "condition": {"kind": c.kind, "n_h": c.n_h, "n_x": c.n_x, "n_t": c.n_t,
                      "label_dim": c.label_dim, "layout": c.layout},
        "columns": list(model.columns),
        "transforms": [transform_to_doc(t) for t in transforms],
    }


def gan_from_doc(doc: dict):
    c = doc["condition"]
    model = GanModel(
        doc["kind"], doc["mode"], int(doc["noise_dim"]),
        stack_from_doc(doc["generator"]), stack_from_doc(doc["critic"]),
        ConditionSpec(c["kind"], n_h=int(c["n_h"]), n_x=int(c["n_x"]),
                      n_t=int(c.get("n_t", 1)), label_dim=int(c.get("label_dim", 0)),
                      layout=c.get("layout", "flat")),
        tuple(doc["columns"]),
    )
    transforms = tuple(transform_from_doc(t) for t in doc.get("transforms", []))
    return model, transforms


# ---------------------------------------------------------------------------
# top-level save / load
# ---------------------------------------------------------------------------

GAN_KINDS = ("gan", "wgan", "cdcwgan")


def save_model(path, model, transforms=()) -> None:
    if isinstance(model, RbmModel):
        save_document(rbm_to_doc(model, transforms), path)
    elif isinstance(model, GanModel):
        save_document(gan_to_doc(model, transforms), path)
    else:
        raise InvalidValue(f"cannot persist {type(model).__name__}")


def load_model(path):
    """Load a model document.  Returns (model, transform chain) where the
    model is an RbmModel or GanModel."""
    doc = load_document(path)
    kind = doc.get("kind")
    if kind in RBM_KINDS:
        from_doc = rbm_from_doc
    elif kind in GAN_KINDS:
        from_doc = gan_from_doc
    else:
        raise InvalidValue(f"unknown model kind {kind!r}")
    try:
        return from_doc(doc)
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise InvalidValue(f"malformed model document {path}: "
                           f"{type(exc).__name__} {exc}") from None
