import argparse
import json
from types import SimpleNamespace

import pytest

from mcfli import cli
from mcfli.cli import main


def test_trial_command(capsys):
    assert main(["trial", "--k", "2", "--q", "8", "--m", "24", "--n1", "64",
                 "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "snr_db=" in out and "success=" in out


def test_sweep_command_writes_csv(tmp_path):
    out = tmp_path / "s.csv"
    assert main([
        "sweep", "--k", "2", "--m", "16", "--q", "8", "--trials", "2",
        "--n1", "64", "--seed", "1", "--out", str(out),
    ]) == 0
    text = out.read_text()
    assert text.startswith("k,q,m,")
    assert len(text.strip().splitlines()) == 2


def test_sweep_command_from_config(tmp_path, capsys):
    cfg = tmp_path / "spec.json"
    cfg.write_text(json.dumps({
        "k_values": [1], "m_values": [10], "q_values": [6],
        "trials": 1, "n1": 64, "master_seed": 2,
    }))
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.startswith("k,q,m,")


@pytest.mark.parametrize(
    "flag",
    [["--k", "8"], ["--m", "99"], ["--q", "5"], ["--vis", "20"], ["--n1", "32"],
     ["--trials", "5"], ["--threshold", "30"], ["--solver", "bpdn"], ["--seed", "2"]],
    ids=lambda flag: flag[0],
)
def test_sweep_config_refuses_spec_flags(flag, tmp_path, capsys):
    # the spec file sets every cell, the solver and the trial count, so a
    # spec flag beside it would be parsed and then ignored
    cfg = tmp_path / "spec.json"
    cfg.write_text(json.dumps({
        "k_values": [1], "m_values": [10], "q_values": [6],
        "trials": 1, "n1": 64,
    }))
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(cfg), *flag])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert flag[0] in captured.err and captured.out == ""


def test_malformed_config_raises_decode_error(tmp_path):
    cfg = tmp_path / "solver.json"
    cfg.write_text('{"tol": ')
    with pytest.raises(json.JSONDecodeError):
        main(["trial", "--k", "1", "--q", "4", "--m", "8", "--config", str(cfg)])


def test_rip_command(capsys):
    assert main(["rip", "--k", "2", "--q", "10", "--m", "24", "--n1", "64",
                 "--trials", "120", "--seed", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
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
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "truth.pgm").exists()
    out = capsys.readouterr().out
    assert "rs_mode" in out


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
    rip = SimpleNamespace(lower=0.0, upper=0.0, envelope=0.0, upper_ratio=0.0,
                          visibilities=0, trials=0)
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
        "calibrate": ["--perturbation", "phase-aberration", "--out", str(tmp_path)],
    }[command]
    args, reads = _recording_namespace()
    cli.build_parser().parse_args([command, *argv], namespace=args)
    reads.clear()
    assert args.func(args) == 0
    unread = set(vars(args)) - {"command", "func"} - reads
    assert not unread, f"{command} parses flags it never reads: {sorted(unread)}"
