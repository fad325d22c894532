"""The committed goldens hold under another OpenBLAS core type and under
numpy's lower SIMD dispatch levels: the chain and kshot goldens byte for
byte, the four-rooms golden to its stated tolerance."""

import csv
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import pytest

import divset
from divset.config import parse_config
from divset.experiment import run_experiment

from helpers import golden_four_rooms_config, golden_kshot_config

ROOT = Path(__file__).resolve().parent.parent
FOUR_ROOMS_GOLDEN = ROOT / "tests" / "golden" / "four_rooms"
# the four-rooms golden's tolerance, an absolute bound on every numeric
# column; every other field, config echoes and indices included, must match
# exactly. Checkpoints are not compared: a tied policy is a legitimate outcome
FOUR_ROOMS_ATOL = 1e-9
NUMERIC_COLUMNS = {
    "extrinsic_value_mean",
    "extrinsic_value_per_policy",
    "diversity_score",
    "extrinsic_value",
    "sigma_mu",
    "diversity_mean",
    "diversity_mean_exact",
    "objective_value",
}


def _x86_64_linux_with_avx2() -> bool:
    if platform.system() != "Linux" or platform.machine() != "x86_64":
        return False
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
    except OSError:
        return False
    return re.search(r"^flags\s*:.*\bavx2\b", cpuinfo, re.MULTILINE) is not None


def _tree(root: Path) -> dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def _numbers(field: str) -> list[float]:
    """A numeric field: one float, or a JSON list of them."""
    return json.loads(field) if field.startswith("[") else [float(field)]


def _assert_four_rooms_golden_holds(out: Path) -> None:
    """The sweep's qd.csv and traces under out match tests/golden/four_rooms:
    numeric columns within FOUR_ROOMS_ATOL, every other field exactly."""
    names = sorted(p.relative_to(FOUR_ROOMS_GOLDEN).as_posix() for p in FOUR_ROOMS_GOLDEN.rglob("*.csv"))
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*.csv")) == names
    mismatches = []
    for name in names:
        with (out / name).open(newline="") as f:
            got = list(csv.reader(f))
        with (FOUR_ROOMS_GOLDEN / name).open(newline="") as f:
            want = list(csv.reader(f))
        assert got[0] == want[0] and len(got) == len(want), name
        for k, (row, golden_row) in enumerate(zip(got[1:], want[1:]), start=1):
            for column, field, golden_field in zip(want[0], row, golden_row):
                if column in NUMERIC_COLUMNS:
                    x, y = _numbers(field), _numbers(golden_field)
                    ok = len(x) == len(y) and all(abs(a - b) <= FOUR_ROOMS_ATOL for a, b in zip(x, y))
                else:
                    ok = field == golden_field
                if not ok:
                    mismatches.append((name, k, column, field, golden_field))
    assert not mismatches, f"{len(mismatches)} fields off the golden, first: {mismatches[:5]}"


def test_four_rooms_golden_holds_to_its_tolerance(tmp_path):
    run_experiment(parse_config(golden_four_rooms_config(tmp_path)))
    _assert_four_rooms_golden_holds(tmp_path)


def _assert_goldens_reproduce(tmp_path: Path, **env_vars: str) -> None:
    """Re-run the three goldens in subprocesses with env_vars set; assert the
    chain and kshot goldens' bytes and the four-rooms golden's tolerance."""
    chain = json.loads((ROOT / "configs" / "chain_vdw.json").read_text())
    chain["output_dir"] = str(tmp_path / "chain")
    runs = [
        ("run", chain),
        ("kshot", golden_kshot_config(tmp_path / "kshot")),
        ("run", golden_four_rooms_config(tmp_path / "four_rooms")),
    ]
    src = str(Path(divset.__file__).resolve().parent.parent)
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for k, (command, cfg) in enumerate(runs):
        path = tmp_path / f"{k}_{command}.json"
        path.write_text(json.dumps(cfg))
        proc = subprocess.run(
            [sys.executable, "-m", "divset.cli", command, str(path)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
    produced, golden = _tree(tmp_path / "chain"), _tree(ROOT / "results" / "chain_vdw")
    assert produced.keys() == golden.keys()
    assert [name for name in golden if produced[name] != golden[name]] == []
    kshot_csv = (tmp_path / "kshot" / "kshot.csv").read_bytes()
    assert kshot_csv == (ROOT / "tests" / "golden" / "kshot_chain.csv").read_bytes()
    _assert_four_rooms_golden_holds(tmp_path / "four_rooms")


@pytest.mark.skipif(
    not _x86_64_linux_with_avx2(), reason="OPENBLAS_CORETYPE=Haswell needs x86-64 Linux with AVX2"
)
def test_goldens_reproduce_with_the_haswell_openblas_kernels(tmp_path):
    # OpenBLAS picks its LU kernels by core type. The chain and kshot goldens
    # catch only the kernel dependence that the slip-free chain's matrices
    # exercise; the four-rooms golden adds the dense one-class systems
    _assert_goldens_reproduce(tmp_path, OPENBLAS_CORETYPE="Haswell")


@pytest.mark.parametrize(
    "disabled",
    ["X86_V4 AVX512_ICL AVX512_SPR", "X86_V4 AVX512_ICL AVX512_SPR X86_V3"],
    ids=["avx2", "baseline"],
)
def test_goldens_reproduce_at_lower_numpy_dispatch_levels(tmp_path, disabled):
    # numpy dispatches its loops to AVX-512, AVX2 or the baseline build by the
    # features it finds; these settings take the host down to AVX2 and to the
    # baseline. On a host without a feature, disabling it changes nothing
    _assert_goldens_reproduce(tmp_path, NPY_DISABLE_CPU_FEATURES=disabled)
