"""The scripts outside the package still run against it.

Neither the parity script nor the kernel timings run in the rest of the
suite, so an API change would otherwise break them unnoticed.
"""

import importlib.util
import os
import subprocess
import sys

from fairmtl.model import ArchConfig
from fairmtl.trainer import TrainConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_parity_check_builds_every_config():
    """Every run of scripts/parity_check.py gets a valid architecture and
    training config, without training any, and so does each of its
    `--stacked` stack-mates; the MMD runs get their bandwidths."""
    spec = importlib.util.spec_from_file_location(
        "parity_check", os.path.join(ROOT, "scripts", "parity_check.py"))
    parity_check = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity_check)
    runs = list(parity_check.configs())
    assert len(runs) == len({key for key, *_ in runs}) == 129
    for key, (num_tasks, _), arch, config in runs:
        assert isinstance(arch, ArchConfig) and isinstance(config, TrainConfig)
        assert arch.num_tasks == config.num_tasks == num_tasks, key
    assert {c.mmd_bandwidth for *_, c in runs} == {0.3, 1.0, 2.0}
    for *_, config in runs:
        mates = parity_check._mates(config, nan=True)
        assert len({mate.seed for mate in mates}) == 5
        assert all(isinstance(mate, TrainConfig) for mate in mates)


def test_bench_kernels_runs():
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "benchmarks", "bench_kernels.py"),
         "--repeats", "1"], env=env, capture_output=True, text=True,
        timeout=300)
    assert done.returncode == 0, done.stderr
    assert "adagrad 16x8" in done.stdout and "mmd term 240+240" in done.stdout
