"""The committed goldens keep their bytes under another OpenBLAS core type
and under numpy's lower SIMD dispatch levels."""

import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import pytest

import divset

from helpers import golden_kshot_config

ROOT = Path(__file__).resolve().parent.parent


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


def _assert_goldens_reproduce(tmp_path: Path, **env_vars: str) -> None:
    """Re-run both goldens in subprocesses with env_vars set; assert their bytes."""
    chain = json.loads((ROOT / "configs" / "chain_vdw.json").read_text())
    chain["output_dir"] = str(tmp_path / "chain")
    runs = [("run", chain), ("kshot", golden_kshot_config(tmp_path / "kshot"))]
    src = str(Path(divset.__file__).resolve().parent.parent)
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for command, cfg in runs:
        path = tmp_path / f"{command}.json"
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


@pytest.mark.skipif(
    not _x86_64_linux_with_avx2(), reason="OPENBLAS_CORETYPE=Haswell needs x86-64 Linux with AVX2"
)
def test_goldens_reproduce_with_the_haswell_openblas_kernels(tmp_path):
    # OpenBLAS picks its LU kernels by core type. This catches only the kernel
    # dependence that these goldens' matrices (the slip-free chain's) exercise;
    # it is no general guard against, say, a multi-column right-hand side
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
