"""Scene JSON and graymap export.

JSON schema:

* grid:    ``{"dim", "n1", "fov"}``; a grid with any other key is refused
* scene:   ``{"grid", "values": [...], "vignette": [...] | null}``

Arrays are written with ``np.save`` (``.npy``) where they are made.
"""

from __future__ import annotations

import json

import numpy as np

from .grid import Grid, make_grid
from .scene import SceneImage


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
