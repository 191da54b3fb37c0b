"""JSON and binary interchange formats.

JSON schema:

* grid:    ``{"dim", "n1", "fov"}``; a grid with any other key is refused
* scene:   ``{"grid", "values": [...], "vignette": [...] | null}``
* fringe manifest: ``{"grid", "cores", "phase_steps", "frame_shape",
  "frames": [...], "reference", "reference_core"}``

Binary complex-matrix format (little endian): header ``u32 order`` then
``u32 dtype_tag`` (1 = complex128), payload ``order * order`` row-major
``[re, im]`` float64 pairs.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .grid import Grid, make_grid
from .scene import SceneImage

DTYPE_TAG_COMPLEX128 = 1


# -- JSON ------------------------------------------------------------------


def grid_to_dict(grid: Grid) -> dict:
    return {"dim": grid.dim, "n1": grid.n1, "fov": grid.fov}


def grid_from_dict(data: dict) -> Grid:
    return make_grid(**data)


def scene_to_json(scene: SceneImage) -> str:
    return json.dumps(
        {
            "grid": grid_to_dict(scene.grid),
            "values": scene.values.ravel().tolist(),
            "vignette": None
            if scene.vignette is None
            else scene.vignette.ravel().tolist(),
        }
    )


def scene_from_json(text: str) -> SceneImage:
    data = json.loads(text)
    grid = grid_from_dict(data["grid"])
    vignette = data.get("vignette")
    return SceneImage(
        grid=grid,
        values=np.asarray(data["values"], dtype=np.float64).reshape(grid.shape),
        vignette=None
        if vignette is None
        else np.asarray(vignette, dtype=np.float64).reshape(grid.shape),
    )


# -- binary complex matrices -------------------------------------------------


def write_complex_matrix(path, matrix: np.ndarray):
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("binary format holds square matrices only")
    order = matrix.shape[0]
    interleaved = np.empty((order, order, 2))
    interleaved[..., 0] = matrix.real
    interleaved[..., 1] = matrix.imag
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", order, DTYPE_TAG_COMPLEX128))
        fh.write(interleaved.astype("<f8").tobytes())


def read_complex_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        order, tag = struct.unpack("<II", fh.read(8))
        if tag != DTYPE_TAG_COMPLEX128:
            raise ValueError(f"unknown dtype tag {tag}")
        payload = np.frombuffer(fh.read(order * order * 16), dtype="<f8")
    payload = payload.reshape(order, order, 2)
    return payload[..., 0] + 1j * payload[..., 1]


def write_float_array(path, values: np.ndarray):
    """Flat float64 payload (frames, images); shape goes in a JSON manifest."""
    with open(path, "wb") as fh:
        fh.write(np.asarray(values, dtype="<f8").ravel().tobytes())


def read_float_array(path, shape) -> np.ndarray:
    with open(path, "rb") as fh:
        data = np.frombuffer(fh.read(), dtype="<f8")
    return data.reshape(shape)


def save_fringe_stack(stack, out_dir) -> str:
    """Write one flat float array per frame plus a JSON manifest.

    Returns the manifest path. Frames are named ``fringe_q<core>_k<step>.f64``
    and the reference-only frame ``reference.f64``; ``reference_core`` holds
    the index of the phase-stepped core.
    """
    import os

    os.makedirs(out_dir, exist_ok=True)
    q_count, n_steps = stack.frames.shape[0], stack.frames.shape[1]
    frame_files = []
    for q in range(q_count):
        for k in range(n_steps):
            name = f"fringe_q{q:03d}_k{k}.f64"
            write_float_array(os.path.join(out_dir, name), stack.frames[q, k])
            frame_files.append(name)
    write_float_array(os.path.join(out_dir, "reference.f64"), stack.reference_frame)
    manifest = {
        "grid": grid_to_dict(stack.grid),
        "cores": q_count,
        "phase_steps": n_steps,
        "frame_shape": list(stack.grid.shape),
        "frames": frame_files,
        "reference": "reference.f64",
        "reference_core": int(stack.reference),
    }
    path = os.path.join(out_dir, "fringes.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
    return path


def load_fringe_stack(manifest_path):
    """Read a stack written by :func:`save_fringe_stack`; a manifest without
    ``reference_core`` reads as core 0."""
    import os

    from .calibration import FringeStack

    with open(manifest_path) as fh:
        manifest = json.load(fh)
    grid = grid_from_dict(manifest["grid"])
    base = os.path.dirname(manifest_path)
    shape = tuple(manifest["frame_shape"])
    frames = np.stack(
        [read_float_array(os.path.join(base, f), shape) for f in manifest["frames"]]
    ).reshape((manifest["cores"], manifest["phase_steps"]) + shape)
    reference = read_float_array(os.path.join(base, manifest["reference"]), shape)
    return FringeStack(
        grid=grid,
        frames=frames,
        reference_frame=reference,
        reference=int(manifest.get("reference_core", 0)),
    )


# -- portable graymap --------------------------------------------------------


def write_pgm(path, image: np.ndarray):
    """8-bit portable graymap, image rescaled to its own min/max."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError("PGM export needs a 2-D image")
    lo, hi = image.min(), image.max()
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    pixels = np.round((image - lo) * scale).astype(np.uint8)
    header = f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode()
    with open(path, "wb") as fh:
        fh.write(header + pixels.tobytes())
