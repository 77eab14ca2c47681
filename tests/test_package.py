"""The package surface: what ``import qbattery`` exports, and what a first quench imports."""

import importlib
import os
import subprocess
import sys

import pytest

import qbattery
import qbattery.cli
from qbattery import battery, dynamics, hamiltonians, sweeps


def test_package_exports_each_module_all_once():
    modules = (hamiltonians, dynamics, battery, sweeps)
    expected = ["__version__"] + [name for module in modules for name in module.__all__]
    assert qbattery.__all__ == expected
    assert len(set(expected)) == len(expected)
    for name in expected:
        assert hasattr(qbattery, name), name
    for module in modules:
        for name in module.__all__:
            assert getattr(qbattery, name) is getattr(module, name)


def test_package_exports_no_full_sector_chain_names():
    # A chain is built only by the orbit walk from its quench state.
    for name in ("JchBasis", "BasisIndex", "build_jch_sector", "total_excitations",
                 "initial_state"):
        assert name not in qbattery.__all__, name
        assert not hasattr(qbattery, name), name


def test_package_exports_no_collective_basis_names():
    # The ladder comes from its params inside build_quench_block and build_csr.
    for name in ("DickeBasis", "build_dicke_basis", "dicke_dim", "build_basis", "jz_diagonal",
                 "initial_index", "BasisMismatchError"):
        assert name not in qbattery.__all__, name
        assert not hasattr(qbattery, name), name
        assert not hasattr(hamiltonians, name), name
    assert not hasattr(qbattery, "basis")
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("qbattery.basis")
    for name in ("CapacityError", "jch_sector_dim"):
        assert name in hamiltonians.__all__, name
        assert getattr(qbattery, name) is getattr(hamiltonians, name)


def test_benchmark_worker_names_exist():
    # The names the benchmark worker reaches through the package.
    for name in ("charge", "ModelParams", "Model", "Topology", "SweepSpec", "Axis", "Scaling",
                 "run_sweep"):
        assert name in qbattery.__all__, name
    assert qbattery.battery is battery and qbattery.sweeps is sweeps
    assert callable(qbattery.cli.main)


def test_first_quench_leaves_csgraph_unimported():
    # Importing scipy.sparse.csgraph alone takes about 45 ms, a sixth of the
    # start-up cost of a first quench; the orbits are found with numpy
    # instead, and the ladder block by masks on its conserved quantities.
    # scipy.optimize took `import numpy, scipy.sparse, scipy.optimize` from
    # 397 ms to 746 ms (medians of 7 process starts); the power search
    # refines its maximum with its own Brent steps instead.  scipy.sparse
    # itself costs 143-175 ms, so a dense quench runs on numpy alone: its
    # block is a list of entries, the cost estimate prices Chebyshev from the
    # diagonal's range before it bounds the spectrum, and only a block that
    # goes to Chebyshev loads SciPy.
    code = (
        "import sys, qbattery, qbattery.cli\n"
        "from qbattery import Model, ModelParams, QuenchSystem, SearchConfig, charge, max_power\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(qbattery.__file__)\n"
        "print(len(loaded()))\n"
        "charge(ModelParams(model=Model.JCH, n=2, beta=0.05, kappa=0.05))\n"
        "dicke = QuenchSystem(ModelParams(model=Model.DICKE, n=10, beta=0.5))\n"
        "max_power(dicke, SearchConfig())\n"
        "print(dicke.engine, len(loaded()))\n"
        "line = QuenchSystem(ModelParams(model=Model.JCH, n=6, beta=0.05, kappa=0.5))\n"
        "max_power(line, SearchConfig())\n"
        "print(line.engine, 'scipy.sparse' in loaded())\n"
        "print('scipy.sparse.csgraph' in sys.modules, 'scipy.optimize' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(qbattery.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    where, imported, dense, after_dense, cheb, sparse, csgraph, optimize = run.stdout.split()
    assert where == qbattery.__file__
    assert (imported, dense, after_dense) == ("0", "dense", "0")
    assert (cheb, sparse) == ("chebyshev", "True")
    assert (csgraph, optimize) == ("False", "False")
