"""The JSON checkpoint format (terasec-params-v1) that the .npz archive of
terasec.autodiff replaced, kept as the reference for the differential tests:
every tensor as a shape and a list of floats in one JSON document.
"""
import json

import numpy as np

from terasec.autodiff import CheckpointMismatchError, _check_finite

CHECKPOINT_FORMAT = "terasec-params-v1"


def save_checkpoint(path, params, meta=None):
    """Write params by name; refuses (writing nothing) if any is non-finite."""
    for p in params:
        _check_finite(p.name, p.data)
    blob = {
        "format": CHECKPOINT_FORMAT,
        "meta": meta or {},
        "tensors": {
            p.name: {"shape": list(p.data.shape), "data": p.data.ravel().tolist()}
            for p in params
        },
    }
    # compact, as the format was written: the .npz loader knows it by its head
    with open(path, "w") as fh:
        json.dump(blob, fh)


def load_checkpoint(path, params):
    """Load tensors by name into the given parameters (shapes must match,
    values must be finite); a rejected checkpoint changes no parameter."""
    with open(path) as fh:
        blob = json.load(fh)
    if blob.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"unsupported checkpoint format {blob.get('format')!r}")
    tensors, meta = blob["tensors"], blob.get("meta", {})
    loaded = []
    for p in params:
        if p.name not in tensors:
            raise CheckpointMismatchError(f"no tensor {p.name!r}", meta)
        entry = tensors[p.name]
        data = np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
        if data.shape != p.data.shape:
            raise CheckpointMismatchError(f"shape mismatch for {p.name!r}", meta)
        _check_finite(p.name, data)
        loaded.append(data)
    for p, data in zip(params, loaded):
        p.data = data
    return meta
