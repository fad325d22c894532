"""End-to-end checks of the command line interface."""

import json
from pathlib import Path

import pytest

from divset.cli import main


def write_config(tmp_path: Path, **overrides) -> Path:
    d = {
        "master_seed": 9,
        "output_dir": str(tmp_path / "out"),
        "environment": {"type": "chain", "length": 4, "end_reward": 1.0},
        "diversity": {"kind": "Repulsive", "contact_distance": 1.0},
        "strategy": {"kind": "DominoLagrangian", "alpha": 0.8},
        "trainer": {"mode": "exact", "outer_iterations": 3},
    }
    d.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(d))
    return path


def test_validate_ok(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr()
    assert str(path) in out.out
    assert out.err == ""


def test_validate_bad_config_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, strategy={"kind": "Nope"})
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "strategy.kind" in err


def test_validate_missing_file_exits_2(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json")]) == 2
    assert "config error:" in capsys.readouterr().err


def test_validate_unreadable_config_exits_2(tmp_path, capsys):
    # a directory, and a file whose bytes are not UTF-8
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"output_dir": "caf\u00e9"}'.encode("latin-1"))
    for path, reason in ((tmp_path, "cannot read"), (latin1, "not UTF-8")):
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and reason in err


def test_run_writes_outputs_and_prints_qd_path(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["run", str(path)]) == 0
    printed = capsys.readouterr().out.strip()
    qd = Path(printed)
    assert qd.name == "qd.csv"
    assert qd.exists()
    assert (qd.parent / "traces" / "run_00000.csv").exists()
    assert (qd.parent / "checkpoints" / "run_00000.json").exists()


def test_kshot_requires_a_kshot_section(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["kshot", str(path)]) == 2
    assert "kshot" in capsys.readouterr().err


def test_kshot_writes_csv(tmp_path, capsys):
    path = write_config(
        tmp_path,
        kshot={
            "methods": [
                {"name": "pair", "strategy": {"kind": "DominoLagrangian", "alpha": 0.8}, "set_size": 2}
            ],
            "perturbations": [{"kind": "ActionFailure", "magnitudes": [0.2]}],
            "k_select": 2,
            "n_eval": 3,
            "horizon": 8,
            "n_train_seeds": 2,
            "bootstrap_resamples": 20,
        },
    )
    assert main(["kshot", str(path)]) == 0
    printed = capsys.readouterr().out.strip()
    assert Path(printed).name == "kshot.csv"
    assert Path(printed).exists()


def test_plot_writes_svg_and_is_deterministic(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["run", str(path)]) == 0
    qd = Path(capsys.readouterr().out.strip())
    out_svg = tmp_path / "qd.svg"
    assert main(["plot", str(qd), str(out_svg)]) == 0
    capsys.readouterr()
    first = out_svg.read_bytes()
    assert first.lstrip().startswith(b"<?xml") or b"<svg" in first[:200]
    assert main(["plot", str(qd), str(out_svg)]) == 0
    capsys.readouterr()
    assert out_svg.read_bytes() == first


def test_plot_header_only_csv_exits_3(tmp_path, capsys):
    csv_path = tmp_path / "qd.csv"
    csv_path.write_text("strategy,alpha,n,l0,seed,extrinsic_value_mean,extrinsic_value_per_policy,diversity_score\n")
    assert main(["plot", str(csv_path), str(tmp_path / "o.svg")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError")
    assert "no data rows" in err


def test_missing_command_is_an_argparse_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_module_runs_as_script(tmp_path):
    import os
    import subprocess
    import sys

    import divset

    # the subprocess finds the package where this process imported it from
    src = str(Path(divset.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    path = write_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "divset.cli", "validate", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "ok:" in proc.stdout
