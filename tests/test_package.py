"""The package surface: what ``import qbattery`` exports."""

import qbattery
import qbattery.cli
from qbattery import basis, battery, dynamics, hamiltonians, sweeps


def test_package_exports_each_module_all_once():
    modules = (basis, hamiltonians, dynamics, battery, sweeps)
    expected = ["__version__"] + [name for module in modules for name in module.__all__]
    assert qbattery.__all__ == expected
    assert len(set(expected)) == len(expected)
    for name in expected:
        assert hasattr(qbattery, name), name
    for module in modules:
        for name in module.__all__:
            assert getattr(qbattery, name) is getattr(module, name)


def test_benchmark_worker_names_exist():
    # The names the benchmark worker reaches through the package.
    for name in ("charge", "ModelParams", "Model", "Topology", "SweepSpec", "Axis", "Scaling",
                 "run_sweep"):
        assert name in qbattery.__all__, name
    assert qbattery.battery is battery and qbattery.sweeps is sweeps
    assert callable(qbattery.cli.main)
