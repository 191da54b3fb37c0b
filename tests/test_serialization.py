import json

import numpy as np
import pytest

from mcfli import explicit_layout, make_grid, random_layout_1d
from mcfli.scene import SceneImage
from mcfli.serialization import (
    grid_from_dict,
    grid_to_dict,
    scene_from_json,
    scene_to_json,
    write_pgm,
)

from fixtures import gaussian_vignette


def test_layout_roundtrip():
    # a layout is its grid and positions: rebuilding from them gives it back
    g = make_grid(1, 64, 1.0)
    lay = random_layout_1d(g, 8, seed=0)
    back = explicit_layout(lay.grid, lay.positions)
    assert np.array_equal(back.positions, lay.positions)
    assert np.array_equal(back.bin_map, lay.bin_map)
    assert back.grid == lay.grid


def test_scene_roundtrip():
    g = make_grid(2, 8, 1.0)
    scene = SceneImage(
        grid=g,
        values=np.arange(64.0).reshape(8, 8),
        vignette=gaussian_vignette(g),
    )
    back = scene_from_json(scene_to_json(scene))
    assert np.array_equal(back.values, scene.values)
    assert np.allclose(back.vignette, scene.vignette)


def test_grid_json_holds_dim_n1_fov():
    g = make_grid(2, 8, 0.5)
    assert grid_to_dict(g) == {"dim": 2, "n1": 8, "fov": 0.5}
    assert grid_from_dict(grid_to_dict(g)) == g


@pytest.mark.parametrize("key", ["wavelength", "depth"])
def test_grid_with_optical_constants_is_refused(key):
    # an older file carried wavelength and depth; they must not be dropped
    old = {"dim": 2, "n1": 16, "fov": 1.0, key: 1.0}
    with pytest.raises(TypeError, match=key):
        grid_from_dict(old)
    scene = json.loads(scene_to_json(SceneImage(grid=make_grid(2, 16, 1.0),
                                                values=np.zeros((16, 16)))))
    scene["grid"] = old
    with pytest.raises(TypeError, match=key):
        scene_from_json(json.dumps(scene))


def test_pgm_writer(tmp_path):
    img = np.linspace(0, 1, 64).reshape(8, 8)
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n8 8\n255\n")
    assert len(raw) == len(b"P5\n8 8\n255\n") + 64
