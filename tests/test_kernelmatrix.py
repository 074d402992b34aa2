"""tools/kernelmatrix.py: the tier-1 tests once per OpenBLAS kernel."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "kernelmatrix.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("kernelmatrix", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_one_kernel_runs_the_selected_test_in_a_child(capsys):
    argv = ["--kernels", "Nehalem", "--", "tests/test_network.py", "-k", "leaky_relu_branches"]
    assert load_tool().main(argv) == 0
    assert capsys.readouterr().out == ("Nehalem (runs Nehalem): 1 passed, 0 failed, 0 xfailed, "
                                       "0 xpassed, 0 errors; pytest exit 0\n")


def test_a_run_that_fails_is_exit_1_naming_its_tests():
    tool = load_tool()
    output = ("..F.x\n=== short test summary info ===\n"
              "FAILED tests/test_a.py::test_b - assert 1 == 2\n"
              "ERROR tests/test_c.py - ImportError\n"
              "1 failed, 3 passed, 1 xfailed, 1 error in 0.50s\n")
    assert tool.summarize(output) == (
        {"passed": 3, "failed": 1, "xfailed": 1, "xpassed": 0, "error": 1},
        ["tests/test_a.py::test_b", "tests/test_c.py"])
    assert tool.main(["--kernels", "Nehalem", "--", "tests/no_such_file.py"]) == 1
