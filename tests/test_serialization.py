import json

import numpy as np
import pytest

from mcfli import (
    explicit_layout,
    gaussian_vignette,
    make_grid,
    random_hermitian,
    random_layout_1d,
)
from mcfli.scene import SceneImage
from mcfli.serialization import (
    grid_from_dict,
    grid_to_dict,
    read_complex_matrix,
    read_float_array,
    scene_from_json,
    scene_to_json,
    write_complex_matrix,
    write_float_array,
    write_pgm,
)


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
def test_grid_with_optical_constants_is_refused(key, tmp_path):
    # an older file carried wavelength and depth; they must not be dropped
    old = {"dim": 2, "n1": 16, "fov": 1.0, key: 1.0}
    with pytest.raises(TypeError, match=key):
        grid_from_dict(old)
    scene = json.loads(scene_to_json(SceneImage(grid=make_grid(2, 16, 1.0),
                                                values=np.zeros((16, 16)))))
    scene["grid"] = old
    with pytest.raises(TypeError, match=key):
        scene_from_json(json.dumps(scene))

    from mcfli import fermat_spiral_layout, render_fringes, synth_fields
    from mcfli.serialization import load_fringe_stack, save_fringe_stack

    fields = synth_fields(fermat_spiral_layout(make_grid(2, 16, 1.0), 3), seed=0)
    manifest = save_fringe_stack(render_fringes(fields), tmp_path / "fringes")
    with open(manifest) as fh:
        data = json.load(fh)
    data["grid"] = old
    with open(manifest, "w") as fh:
        json.dump(data, fh)
    with pytest.raises(TypeError, match=key):
        load_fringe_stack(manifest)


def test_complex_matrix_binary_roundtrip(tmp_path):
    h = random_hermitian(9, seed=5)
    path = tmp_path / "mat.cmat"
    write_complex_matrix(path, h)
    back = read_complex_matrix(path)
    assert np.array_equal(back, h)
    # header: u32 order, u32 dtype tag
    raw = path.read_bytes()
    assert len(raw) == 8 + 9 * 9 * 16
    assert int.from_bytes(raw[0:4], "little") == 9
    assert int.from_bytes(raw[4:8], "little") == 1


def test_complex_matrix_rejects_nonsquare(tmp_path):
    with pytest.raises(ValueError):
        write_complex_matrix(tmp_path / "x.cmat", np.zeros((2, 3), complex))


def test_float_array_roundtrip(tmp_path):
    arr = np.random.default_rng(0).standard_normal((3, 4, 5))
    path = tmp_path / "frames.f64"
    write_float_array(path, arr)
    assert np.array_equal(read_float_array(path, (3, 4, 5)), arr)


def test_fringe_stack_roundtrip(tmp_path):
    from mcfli import fermat_spiral_layout, recover_fields, render_fringes, synth_fields
    from mcfli.serialization import load_fringe_stack, save_fringe_stack

    g = make_grid(2, 16, 1.0)
    lay = fermat_spiral_layout(g, 3)
    stack = render_fringes(synth_fields(lay, seed=0))
    manifest = save_fringe_stack(stack, tmp_path / "fringes")
    back = load_fringe_stack(manifest)
    assert np.array_equal(back.frames, stack.frames)
    assert np.array_equal(back.reference_frame, stack.reference_frame)
    assert back.n_frames == stack.n_frames
    # the reloaded stack drives the recovery path unchanged
    a = recover_fields(stack).fields
    b = recover_fields(back).fields
    assert np.array_equal(a, b)


def test_fringe_stack_roundtrip_keeps_reference_core(tmp_path):
    from dataclasses import replace

    from mcfli import fermat_spiral_layout, render_fringes, synth_fields
    from mcfli.serialization import load_fringe_stack, save_fringe_stack

    g = make_grid(2, 16, 1.0)
    fields = replace(synth_fields(fermat_spiral_layout(g, 4), seed=0), reference=2)
    manifest = save_fringe_stack(render_fringes(fields), tmp_path / "fringes")
    assert load_fringe_stack(manifest).reference == 2
    # a manifest written without the key reads as core 0
    with open(manifest) as fh:
        data = json.load(fh)
    del data["reference_core"]
    with open(manifest, "w") as fh:
        json.dump(data, fh)
    assert load_fringe_stack(manifest).reference == 0


def test_pgm_writer(tmp_path):
    img = np.linspace(0, 1, 64).reshape(8, 8)
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n8 8\n255\n")
    assert len(raw) == len(b"P5\n8 8\n255\n") + 64
