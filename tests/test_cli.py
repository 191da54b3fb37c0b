import argparse
import json
import pickle
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from mcfli import (
    WavefieldSet,
    bar_target_scene,
    cli,
    draw_sketches,
    fermat_spiral_layout,
    make_grid,
    synth_fields,
    vignetted_snr,
)
from mcfli.calibration import speckle_cross_correlation
from mcfli.cli import main
from mcfli.harness import RipEstimate, SweepSpec, _child_seed


def test_trial_command(capsys):
    assert main(["trial", "--k", "2", "--q", "8", "--m", "24", "--n1", "64",
                 "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "snr_db=" in out and "success=" in out


def test_sweep_command_writes_csv(tmp_path, capsys):
    # --out gets the bytes that stdout gets without it
    argv = ["sweep", "--k", "2", "--m", "16", "--q", "8", "--trials", "2",
            "--n1", "64", "--seed", "1"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "s.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode()
    assert printed.startswith("k,q,m,")
    assert len(printed.strip().splitlines()) == 2


SWEEP_FLAGS = [
    (["--k", "8"], "k_values", [8]), (["--m", "99"], "m_values", [99]),
    (["--q", "5"], "q_values", [5]), (["--vis", "20"], "vis_targets", [20]),
    (["--n1", "32"], "n1", 32), (["--trials", "5"], "trials", 5),
    (["--threshold", "30"], "threshold_db", 30.0),
    (["--solver", "bpdn"], "solver", "bpdn"), (["--seed", "2"], "master_seed", 2),
]


@pytest.mark.parametrize(
    "flag, field, value", SWEEP_FLAGS, ids=[flag[0] for flag, _, _ in SWEEP_FLAGS]
)
def test_sweep_flags_set_spec(flag, field, value, monkeypatch):
    # each flag sets its SweepSpec field, and a flag left out gives the
    # field its harness default
    specs = []
    result = SimpleNamespace(to_csv=lambda: "")
    monkeypatch.setattr(cli, "run_sweep", lambda spec, threads: specs.append(spec) or result)
    cores = {} if field in ("q_values", "vis_targets") else {"q_values": [4]}
    assert main(["sweep", *(["--q", "4"] if cores else []), *flag]) == 0
    assert specs == [SweepSpec(**{"k_values": [4], "m_values": [44], **cores, field: value})]


@pytest.mark.parametrize(
    "argv, error",
    [(["sweep", "--k", "2"], "one of the arguments --q --vis is required"),
     (["sweep", "--q", "4", "--vis", "20"], "not allowed with argument"),
     (["sweep", "--q", "6", "--config", "spec.json"], "unrecognized arguments: --config"),
     (["demo", "--scene", "scene.npy", "--n1", "128"], "not allowed with argument"),
     (["calibrate", "--delta", "0.3"], "unrecognized arguments: --delta"),
     (["calibrate", "--amplitude-ripple", "0.1", "--phase-aberration", "0.3"],
      "not allowed with argument")],
    ids=["sweep-no-cores", "sweep-q-and-vis", "sweep-config", "demo-scene-and-n1",
         "calibrate-delta", "calibrate-two-kinds"],
)
def test_moot_or_missing_flags_exit_2(argv, error, tmp_path, monkeypatch, capsys):
    # a flag that would be parsed and then ignored, or a missing one that
    # would surface as a traceback, is a usage error.  argparse reads a
    # --scene file before it checks the exclusion, so that file is real
    monkeypatch.chdir(tmp_path)
    np.save("scene.npy", np.zeros((64, 64)))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert error in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "flags, error",
    [(["--trials", "0"], "trials must be >= 1"),
     (["--threshold=-5"], "threshold must be positive"),
     (["--threshold", "nan"], "threshold must be positive"),
     (["--k", "300", "--n1", "256", "--threads", "2"], "k=300 exceeds the grid size 256"),
     (["--q", "1"], "q=1 is below 2"),
     (["--q", "26", "1"], "q=1 is below 2"),
     (["--m", "0"], "m=0 is below 1"),
     (["--m", "44", "0"], "m=0 is below 1"),
     (["--n1", "255"], "argument --n1: n1 must be even and >= 2, got 255"),
     (["--n1", "0"], "argument --n1: n1 must be even and >= 2, got 0"),
     (["--vis", "0"], "vis=0 is below 1"),
     (["--vis", "-3"], "vis=-3 is below 1"),
     (["--q", "8", "--n1", "4"], "q=8 exceeds the 5 distinct grid positions"),
     (["--vis", "100000", "--n1", "8", "--k", "1", "--m", "4", "--trials", "1"],
      "vis=100000 exceeds the 7 distinct visibilities that the whole comb of 9 cores reaches")],
    ids=["trials-0", "negative-threshold", "nan-threshold", "k-above-n1", "q-1", "q-26-1", "m-0",
         "m-44-0", "odd-n1", "n1-0", "vis-0", "vis-negative", "q-above-n1", "vis-above-comb"],
)
def test_sweep_values_the_spec_rejects_exit_2(flags, error, monkeypatch, capsys):
    # a value the sweep spec refuses is a usage error, raised before any
    # trial runs (and so never inside a worker process)
    calls = []
    monkeypatch.setattr(cli, "run_sweep", lambda *a, **k: calls.append(a))
    cores = [] if "--vis" in flags else ["--q", "4"]
    with pytest.raises(SystemExit) as exc:
        main(["sweep", *cores, *flags])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"mcfli sweep: error: {error}" in captured.err and captured.out == ""
    assert calls == []


# the solver configs that the --config rows below name
BAD_CONFIGS = {
    "zero.json": '{"max_iterations": 0}',
    "float.json": '{"max_iterations": 2.5}',
    "unknown.json": '{"max_iter": 5}',
    "true-iterations.json": '{"max_iterations": true}',
    "true-tol.json": '{"tol": true}',
}

# the scene files that the --scene rows below name: text, pickled bytes, an
# .npz archive's arrays or one array
BAD_SCENES = {
    "scene.json": '{"grid": {"dim": 2, "n1": 64, "fov": 1.0}, "values": []}',
    "pickle.npy": pickle.dumps(np.zeros((64, 64))),
    "scenes.npz": {"values": np.zeros((64, 64))},
    "flat.npy": np.zeros(64),
    "wide.npy": np.zeros((64, 32)),
    "odd.npy": np.zeros((63, 63)),
    "empty.npy": np.zeros((0, 0)),
    "complex.npy": np.zeros((64, 64), dtype=complex),
    "nan.npy": np.where(np.eye(64) > 0, np.nan, 0.0),
    "inf.npy": np.full((64, 64), np.inf),
}


def _write_file(path, content):
    if isinstance(content, str):
        path.write_text(content)
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif isinstance(content, dict):
        np.savez(path, **content)
    else:
        np.save(path, content)


@pytest.mark.parametrize(
    "argv, error",
    [(["demo", "--compare-q", "0"], "argument --compare-q: must be >= 2, got 0"),
     (["demo", "--compare-q", "55", "1"], "argument --compare-q: must be >= 2, got 1"),
     (["demo", "--q", "0"], "argument --q: must be >= 2, got 0"),
     (["demo", "--q", "1"], "argument --q: must be >= 2, got 1"),
     (["demo", "--m", "0"], "argument --m: must be >= 1, got 0"),
     (["calibrate", "--q", "0"], "argument --q: must be >= 1, got 0"),
     (["calibrate", "--sketches", "0"], "argument --sketches: must be >= 1, got 0"),
     (["calibrate", "--noise=-0.5"], "argument --noise: must be >= 0, got -0.5"),
     (["trial", "--k", "1", "--q", "1", "--m", "8"], "argument --q: must be >= 2, got 1"),
     (["trial", "--k", "1", "--q", "4", "--m", "0"], "argument --m: must be >= 1, got 0"),
     (["rip", "--q", "1"], "argument --q: must be >= 2, got 1"),
     (["rip", "--m", "0"], "argument --m: must be >= 1, got 0"),
     (["rip", "--trials", "99"], "argument --trials: must be >= 100, got 99"),
     (["sweep", "--q", "4", "--threads", "0"], "argument --threads: must be >= 1, got 0"),
     (["trial", "--k", "0", "--q", "4", "--m", "8"], "argument --k: must be >= 1, got 0"),
     (["sweep", "--q", "4", "--k", "4", "0"], "argument --k: must be >= 1, got 0"),
     (["rip", "--k", "0"], "argument --k: must be >= 1, got 0"),
     (["trial", "--k", "1", "--q", "4", "--m", "8", "--n1", "7"],
      "argument --n1: n1 must be even and >= 2, got 7"),
     (["rip", "--n1", "7"], "argument --n1: n1 must be even and >= 2, got 7"),
     (["demo", "--n1", "7"], "argument --n1: n1 must be even and >= 2, got 7"),
     (["calibrate", "--n1", "7"], "argument --n1: n1 must be even and >= 2, got 7"),
     (["demo", "--n1", "x"], "argument --n1: invalid int value: 'x'"),
     (["rip", "--k", "65", "--n1", "64"], "k=65 exceeds the grid size 64"),
     (["rip", "--q", "8", "--n1", "4"], "q=8 exceeds the 5 distinct grid positions"),
     (["demo", "--n1", "32"],
      "argument --n1: bar_target_scene needs n1 to be a multiple of 64"),
     (["trial", "--k", "1", "--q", "4", "--m", "8", "--seed", "-1"],
      "argument --seed: must be >= 0, got -1"),
     (["sweep", "--q", "4", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
     (["rip", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
     (["demo", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
     (["calibrate", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
     (["trial", "--k", "2", "--q", "4", "--m", "8", "--threshold=-500"],
      "argument --threshold: must be > 0, got -500.0"),
     (["trial", "--k", "2", "--q", "4", "--m", "8", "--threshold", "0"],
      "argument --threshold: must be > 0, got 0.0"),
     (["trial", "--k", "2", "--q", "4", "--m", "8", "--threshold", "nan"],
      "argument --threshold: must be > 0, got nan"),
     (["trial", "--k", "1", "--q", "4", "--m", "8", "--config", "zero.json"],
      "argument --config: 'zero.json': max_iterations must be a positive integer"),
     (["trial", "--k", "1", "--q", "4", "--m", "8", "--config", "float.json"],
      "argument --config: 'float.json': max_iterations must be a positive integer"),
     (["trial", "--k", "2", "--q", "8", "--m", "24", "--n1", "64",
       "--config", "true-iterations.json"],
      "argument --config: 'true-iterations.json': max_iterations must be a positive integer"),
     (["trial", "--k", "2", "--q", "8", "--m", "24", "--n1", "64",
       "--config", "true-tol.json"],
      "argument --config: 'true-tol.json': tol must be a positive number"),
     (["calibrate", "--amplitude-ripple", "nan"],
      "argument --amplitude-ripple: must be finite, got nan"),
     (["calibrate", "--phase-aberration", "inf"],
      "argument --phase-aberration: must be finite, got inf"),
     (["demo", "--config", "unknown.json"], "argument --config: 'unknown.json': "
      "SolverConfig.__init__() got an unexpected keyword argument 'max_iter'"),
     (["demo", "--config", "missing.json"],
      "argument --config: can't read 'missing.json': No such file or directory"),
     (["demo", "--scene", "scene.json"], "argument --scene: 'scene.json' is not a .npy array"),
     (["demo", "--scene", "pickle.npy"], "argument --scene: 'pickle.npy' is not a .npy array"),
     (["demo", "--scene", "scenes.npz"], "argument --scene: 'scenes.npz' is not a .npy array"),
     (["demo", "--scene", "flat.npy"],
      "argument --scene: 'flat.npy': need a square 2-D image, got shape (64,)"),
     (["demo", "--scene", "wide.npy"],
      "argument --scene: 'wide.npy': need a square 2-D image, got shape (64, 32)"),
     (["demo", "--scene", "odd.npy"],
      "argument --scene: 'odd.npy': n1 must be even and >= 2, got 63"),
     (["demo", "--scene", "empty.npy"],
      "argument --scene: 'empty.npy': n1 must be even and >= 2, got 0"),
     (["demo", "--scene", "complex.npy"],
      "argument --scene: 'complex.npy': need a real image, got complex128"),
     (["demo", "--scene", "nan.npy"], "argument --scene: 'nan.npy': the image holds NaN or inf"),
     (["demo", "--scene", "inf.npy"], "argument --scene: 'inf.npy': the image holds NaN or inf")],
    ids=["demo-compare-q-0", "demo-compare-q-1", "demo-q-0", "demo-q-1", "demo-m-0",
         "calibrate-q-0", "calibrate-sketches-0", "calibrate-negative-noise",
         "trial-q-1", "trial-m-0", "rip-q-1", "rip-m-0", "rip-trials-99", "sweep-threads-0",
         "trial-k-0", "sweep-k-0", "rip-k-0", "trial-odd-n1", "rip-odd-n1", "demo-odd-n1",
         "calibrate-odd-n1", "demo-n1-not-int", "rip-k-above-n1", "rip-q-above-n1",
         "demo-n1-not-64", "trial-negative-seed", "sweep-negative-seed", "rip-negative-seed",
         "demo-negative-seed", "calibrate-negative-seed", "trial-negative-threshold",
         "trial-zero-threshold", "trial-nan-threshold", "trial-config-zero-iterations",
         "trial-config-float-iterations", "trial-config-true-iterations", "trial-config-true-tol",
         "calibrate-nan-ripple", "calibrate-inf-aberration", "demo-config-unknown-key",
         "demo-config-missing-file", "demo-scene-json", "demo-scene-pickle", "demo-scene-npz",
         "demo-scene-1-d", "demo-scene-not-square", "demo-scene-odd-side", "demo-scene-side-0",
         "demo-scene-complex", "demo-scene-nan", "demo-scene-inf"],
)
def test_out_of_range_values_exit_2(argv, error, tmp_path, monkeypatch, capsys):
    # refused while parsing: nothing runs and --out makes no directory
    monkeypatch.chdir(tmp_path)
    for name, text in BAD_CONFIGS.items():
        (tmp_path / name).write_text(text)
    for name, content in BAD_SCENES.items():
        _write_file(tmp_path / name, content)
    out = tmp_path / "d"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"mcfli {argv[0]}: error: {error}" in captured.err and captured.out == ""
    assert not out.exists()


def test_trial_sparsity_above_the_grid_exits_2(monkeypatch, capsys):
    # so are more cores than the comb's n1 + 1 positions
    calls = []
    monkeypatch.setattr(cli, "run_trial", lambda *a, **k: calls.append(a))
    for flags, error in (
        (["--k", "65", "--q", "4"], "k=65 exceeds the grid size 64"),
        (["--k", "1", "--q", "66"], "q=66 exceeds the 65 distinct grid positions"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(["trial", *flags, "--m", "8", "--n1", "64"])
        assert exc.value.code == 2
        assert f"mcfli trial: error: {error}" in capsys.readouterr().err
    assert calls == []


def test_demo_with_missing_scene_creates_no_directory(tmp_path, capsys):
    out = tmp_path / "d"
    missing = str(tmp_path / "missing.npy")
    with pytest.raises(SystemExit) as exc:
        main(["demo", "--scene", missing, "--out", str(out)])
    assert exc.value.code == 2
    assert (f"mcfli demo: error: argument --scene: can't read {missing!r}: "
            "No such file or directory") in capsys.readouterr().err
    assert not out.exists()


def test_demo_scene_matches_the_bar_target(tmp_path):
    # the bar target saved as a .npy and read back with --scene images to
    # the same bytes as --n1 64: report, truth graymap and reconstructions
    cfg = tmp_path / "solver.json"
    cfg.write_text('{"max_iterations": 60, "tol": 1e-6}')
    scene = tmp_path / "bar.npy"
    np.save(scene, bar_target_scene(make_grid(2, 64, 1.0)).values)
    flags = ["--q", "12", "--m", "80", "--seed", "0", "--config", str(cfg)]
    assert main(["demo", "--scene", str(scene), "--out", str(tmp_path / "a"), *flags]) == 0
    assert main(["demo", "--n1", "64", "--out", str(tmp_path / "b"), *flags]) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert {"report.json", "truth.pgm"} <= set(names)
    assert sum(name.startswith("recon_") and name.endswith(".npy") for name in names) == 3
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_calibrate_with_a_bad_grid_creates_no_directory(tmp_path, capsys):
    # refused as a usage error while parsing, before --out makes a directory
    out = tmp_path / "d"
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", "--n1", "0", "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --n1: n1 must be even" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, perturbation",
    [([], None),
     (["--amplitude-ripple", "0.1"], ("amplitude-ripple", 0.1)),
     (["--phase-aberration", "0.3"], ("phase-aberration", 0.3))],
    ids=["none", "amplitude-ripple", "phase-aberration"],
)
def test_calibrate_perturbation_flags(flag, perturbation, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "run_calibration_roundtrip", lambda **kw: calls.append(kw) or {})
    assert main(["calibrate", *flag]) == 0
    assert [kw["perturbation"] for kw in calls] == [perturbation]


def test_malformed_config_raises_decode_error(tmp_path, capsys):
    # the JSON decoder's message is a usage error, raised while parsing
    cfg = tmp_path / "solver.json"
    cfg.write_text('{"tol": ')
    with pytest.raises(SystemExit) as exc:
        main(["trial", "--k", "1", "--q", "4", "--m", "8", "--config", str(cfg)])
    assert exc.value.code == 2
    assert f"argument --config: {str(cfg)!r}: Expecting value" in capsys.readouterr().err


def test_rip_command(capsys):
    assert main(["rip", "--k", "2", "--q", "10", "--m", "24", "--n1", "64",
                 "--trials", "120", "--seed", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # the printed keys are the estimate's fields, and nothing else
    assert list(payload) == [f.name for f in fields(RipEstimate)]
    assert payload["lower"] > 0
    assert payload["trials"] == 120


def test_calibrate_command(capsys):
    assert main(["calibrate", "--n1", "16", "--q", "4", "--sketches", "4",
                 "--seed", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["min_cross_correlation"] >= 0.999


def test_demo_command(tmp_path, capsys):
    cfg = tmp_path / "solver.json"
    cfg.write_text('{"max_iterations": 60, "tol": 1e-6}')
    assert main([
        "demo", "--n1", "64", "--q", "12", "--m", "80", "--seed", "0",
        "--out", str(tmp_path), "--config", str(cfg),
    ]) == 0
    assert (tmp_path / "truth.pgm").exists()
    out = capsys.readouterr().out
    assert "rs_mode" in out
    # each reconstruction is saved as a float64 .npy of the grid's shape,
    # and scores the SNR its report entry gives
    scene = bar_target_scene(make_grid(2, 64, 1.0))
    entries = json.loads((tmp_path / "report.json").read_text())["entries"]
    assert len(entries) == 3
    for entry in entries:
        # the 60-iteration cap stops every solve short of the 1e-6 tolerance
        assert entry["converged"] is False
        assert f"iterations={entry['iterations']} converged=False" in out
        tag = f"q{entry['q']}_m{entry['m']}_rho{entry['rho']:.3e}"
        recon = np.load(tmp_path / f"recon_{tag}.npy")
        assert recon.dtype == np.float64 and recon.shape == (64, 64)
        assert vignetted_snr(recon, scene.values, scene.vignette) == entry["snr_db"]


def test_calibrate_out_writes_the_field_stack_as_npy(tmp_path):
    # the saved stack predicts the test speckles the report scored
    n1, q, n_sketches, seed = 16, 5, 6, 2
    assert main(["calibrate", "--n1", str(n1), "--q", str(q), "--noise", "0.02",
                 "--sketches", str(n_sketches), "--phase-aberration", "0.4",
                 "--seed", str(seed), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "calibration.json").read_text())
    assert report["fields"] == "fields.npy"
    grid = make_grid(2, n1, 1.0)
    stack = np.load(tmp_path / "fields.npy")
    assert stack.dtype == np.complex128 and stack.shape == (q, n1, n1)
    truth = synth_fields(fermat_spiral_layout(grid, q),
                         perturbation=("phase-aberration", 0.4), seed=seed)
    sketches = draw_sketches(q, n_sketches, _child_seed(seed, q, n_sketches))
    predicted = WavefieldSet(grid, stack).predict_speckle(sketches)
    correlations = [speckle_cross_correlation(p, t)
                    for p, t in zip(predicted, truth.predict_speckle(sketches))]
    assert min(correlations) == report["min_cross_correlation"] < 0.9999


def _recording_namespace():
    """A namespace, and the set of attribute names read from it."""
    reads = set()

    class Recorder(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    return Recorder(), reads


def _stub_harness(monkeypatch):
    trial = SimpleNamespace(snr_db=0.0, success=False, visibilities=0, iterations=0)
    rip = RipEstimate(lower=0.0, upper=0.0, visibilities=0, trials=0)
    stubs = {
        "run_trial": trial,
        "run_sweep": SimpleNamespace(to_csv=lambda: ""),
        "estimate_rip_constants": rip,
        "run_imaging_demo": SimpleNamespace(entries=[], rs_snr_db=None),
        "run_calibration_roundtrip": {},
    }
    for name, value in stubs.items():
        monkeypatch.setattr(cli, name, lambda *a, _value=value, **k: _value)


@pytest.mark.parametrize("command", ["trial", "sweep", "rip", "demo", "calibrate"])
def test_every_flag_is_read(command, tmp_path, monkeypatch, capsys):
    # a flag no subcommand reads would be accepted and silently ignored
    _stub_harness(monkeypatch)
    cfg = tmp_path / "solver.json"
    cfg.write_text('{"max_iterations": 5}')
    argv = {
        "trial": ["--k", "1", "--q", "4", "--m", "8", "--config", str(cfg)],
        "sweep": ["--q", "4", "--out", str(tmp_path / "s.csv")],
        "rip": ["--out", str(tmp_path / "rip.json")],
        "demo": ["--out", str(tmp_path), "--config", str(cfg)],
        "calibrate": ["--phase-aberration", "0.3", "--out", str(tmp_path)],
    }[command]
    args, reads = _recording_namespace()
    cli.build_parser().parse_args([command, *argv], namespace=args)
    reads.clear()
    assert args.func(args) == 0
    unread = set(vars(args)) - {"command", "func"} - reads
    assert not unread, f"{command} parses flags it never reads: {sorted(unread)}"
