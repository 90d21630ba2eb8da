"""The benchmark's workloads against the package they drive.

``benchmarks/workloads.py`` calls the package's public API with keywords of
its own (``TrainConfig(optimizer="adam", layernorm=True, ...)``), and the
benchmark is compared against earlier commits as it stands, so a package
change that drops or renames something it passes must fail here, in the
tier-1 suite, and not first in a benchmark run.
"""

import importlib.util
from pathlib import Path

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_workloads_build_against_the_package(tmp_path):
    workloads = _load_workloads()
    assert set(workloads.WORKLOADS) == {"mnist_train", "mnist_eval"}
    # built without `prepare`, which writes 70,000 digits; nothing is read or written
    train = workloads.MnistTrain(0, tmp_path)
    train.cfg.validate()
    # the unit builds its model from `spec` but trains it under `cfg`
    assert train.cfg.arch() == train.spec
    workloads.MnistEval(0, tmp_path)
    assert not any(tmp_path.iterdir())
