"""What each entry point imports, checked in fresh interpreters: the test
process has every module loaded already, which would mask an eager import.
"""

import subprocess
import sys
from pathlib import Path

import relayopt

SRC = Path(relayopt.__file__).resolve().parents[1]

# what loading a config never needs
NOT_FOR_CONFIG = ("relayopt.solver", "relayopt.oracle", "relayopt.experiments",
                  "configparser", "csv", "json")


def _fresh(code: str) -> set:
    """Run `code` in a fresh interpreter importing relayopt from this tree;
    return the names in its sys.modules when `code` is done."""
    script = ("import sys\nsys.path.insert(0, sys.argv[1])\n" + code
              + "\nsys.stdout.write('\\n'.join(sorted(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", script, str(SRC)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines())


def test_loading_a_config_imports_only_what_it_uses():
    loaded = _fresh("import relayopt\nrelayopt.load_config()")
    assert not loaded.intersection(NOT_FOR_CONFIG), \
        sorted(loaded.intersection(NOT_FOR_CONFIG))
    assert {"numpy", "relayopt.channel", "relayopt.config"} <= loaded


def test_a_cold_solve_loads_neither_the_oracle_nor_the_sweeps():
    loaded = _fresh(
        "import contextlib, io\nfrom relayopt import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = cli.main(['solve', '--k', '2', '--n', '4', '--m', '1'])\n"
        "assert status == 0, status")
    assert "relayopt.solver" in loaded
    assert "relayopt.oracle" not in loaded
    assert "relayopt.experiments" not in loaded


def test_every_public_name_resolves_from_the_package_root():
    _fresh("""
import relayopt
names = relayopt.__all__
for name in names:
    getattr(relayopt, name)
assert set(names) <= set(dir(relayopt))
try:
    relayopt.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc), exc
else:
    raise AssertionError("an unknown attribute resolved")
assert relayopt.oracle.brute_force_eem is relayopt.brute_force_eem
from relayopt import solver
assert solver.solve_eem is relayopt.solve_eem
bound = {}
exec("from relayopt import *", bound)
assert set(names) <= set(bound), sorted(set(names) - set(bound))
for name in names:
    assert bound[name] is getattr(relayopt, name), name
""")
