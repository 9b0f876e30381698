"""The package's lazy exports, and which modules a command line run imports."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import relprime

SRC = Path(relprime.__file__).resolve().parents[1]
REPO = Path(__file__).resolve().parents[1]
SUBMODULES = ("affine", "arith", "checks", "cli", "counting", "oracle", "setphi")

# The public surface, in the order __all__ has always listed it.
PUBLIC = [
    "CanonicalForm",
    "InvariantProfile",
    "ORACLE_MAX",
    "PhiReport",
    "affine_map",
    "affinely_equivalent",
    "asymptotic_report",
    "binomial",
    "canonical_form",
    "count_relprime",
    "count_relprime_k",
    "divisors",
    "enumerate_relprime",
    "enumerate_relprime_k",
    "enumerate_subset_phi",
    "enumerate_subset_phi_k",
    "enumerate_subset_psi",
    "euler_phi",
    "integer_set",
    "invariant_profile",
    "mobius_sieve",
    "residual_bound",
    "sandwich_bounds",
    "subset_phi",
    "subset_phi_k",
    "subset_psi",
    "sumset",
    "sumset_size_distribution",
    "verify_divisor_sum",
    "verify_recursion",
]

MARKER = "--modules--"


def fresh_run(code: str) -> tuple[str, list[str]]:
    """Run code in a fresh interpreter; return its output and sys.modules.

    -S leaves out site and whatever it imports, so the modules listed
    are the ones the interpreter and the code itself loaded.
    """
    script = f"{code}\nimport sys\nprint({MARKER!r}, *sys.modules, sep='\\n')\n"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    out, _, modules = proc.stdout.partition(MARKER + "\n")
    return out, modules.split()


def modules_after_main(*argv: str) -> list[str]:
    out, modules = fresh_run(
        f"from relprime import cli\nassert cli.main({list(argv)!r}) == 0"
    )
    assert out.strip(), "the command printed nothing"
    return modules


class TestImportFootprint:
    HEAVY = ("relprime.affine", "relprime.oracle", "dataclasses", "fractions", "decimal", "json")
    COUNTING_LAYERS = ("relprime.counting", "relprime.setphi")

    @pytest.mark.parametrize(
        "argv",
        [
            ("compute", "f", "--n", "5"),
            ("verify", "recursions", "--n-max", "50"),
            ("compute", "phi", "--n", "5"),
        ],
    )
    def test_counting_commands_load_no_heavy_module(self, argv):
        modules = modules_after_main(*argv)
        # f, f_k and their recursions live in counting; Φ, Φ_k and ψ in setphi.
        home = "relprime.setphi" if argv[1] == "phi" else "relprime.counting"
        assert [m for m in self.COUNTING_LAYERS if m in modules] == [home]
        assert [m for m in self.HEAVY if m in modules] == []
        # Only verify loads the suites.
        assert ("relprime.checks" in modules) == (argv[0] == "verify")

    @pytest.mark.parametrize(
        "argv",
        [
            ("affine", "dist", "--n", "5"),
            ("affine", "canon", "--set", "2,8,11,20"),
            ("verify", "affine", "--n-max", "50"),
        ],
    )
    def test_affine_commands_load_no_counting_layer(self, argv):
        modules = modules_after_main(*argv)
        assert "relprime.affine" in modules
        assert [m for m in ("relprime.arith", *self.COUNTING_LAYERS) if m in modules] == []
        assert ("relprime.checks" in modules) == (argv[0] == "verify")

    def test_json_output_loads_json(self):
        assert "json" in modules_after_main("compute", "f", "--n", "5", "--format", "json")

    def test_affine_dist_loads_no_fractions_or_dataclasses(self):
        modules = modules_after_main("affine", "dist", "--n", "5")
        assert "relprime.affine" in modules
        assert [m for m in ("fractions", "dataclasses") if m in modules] == []

    def test_bench_loads_no_suites(self):
        assert "relprime.checks" not in modules_after_main("bench", "--n", "5", "--reps", "1")

    @pytest.mark.parametrize(
        "argv",
        [
            ("compute", "f", "--n", "5"),
            ("verify", "recursions", "--n-max", "50"),
            ("affine", "dist", "--n", "5"),
            ("bench", "--n", "5", "--reps", "1"),
        ],
    )
    def test_the_command_line_is_read_without_argparse(self, argv):
        # The rows are the parser; these three cost a few ms of every start-up.
        modules = modules_after_main(*argv)
        assert [m for m in ("argparse", "gettext", "__future__") if m in modules] == []

    def test_bare_import_loads_no_submodule(self):
        _, modules = fresh_run("import relprime")
        assert "relprime" in modules
        assert [m for m in modules if m.startswith("relprime.")] == []


class TestLazyExports:
    def test_all_is_unchanged(self):
        assert relprime.__all__ == PUBLIC

    @pytest.mark.parametrize("name", PUBLIC)
    def test_export_is_its_home_modules_object(self, name):
        home = importlib.import_module(f"relprime.{relprime._EXPORTS[name]}")
        value = getattr(relprime, name)
        assert value is getattr(home, name)
        if callable(value):
            assert value.__module__ == home.__name__

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from relprime import *", namespace)
        assert [name for name in PUBLIC if name not in namespace] == []

    def test_dir_lists_every_name(self):
        listed = dir(relprime)
        assert [name for name in PUBLIC if name not in listed] == []
        assert "__version__" in listed

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            relprime.no_such_name
        assert not hasattr(relprime, "enumerate")

    def test_first_access_imports_and_caches(self):
        out, modules = fresh_run(
            "import relprime\n"
            "f = relprime.count_relprime\n"
            "print('count_relprime' in vars(relprime), f is relprime.count_relprime, f(10))"
        )
        assert out.split() == ["True", "True", "983"]
        assert "relprime.counting" in modules
        assert "relprime.affine" not in modules

    def test_every_name_is_promised(self):
        # A public name stays only while the README or the acceptance gate names it.
        promises = (REPO / "README.md").read_text() + (REPO / "tests" / "test_acceptance.py").read_text()
        unpromised = [name for name in relprime.__all__ if not re.search(rf"\b{name}\b", promises)]
        assert unpromised == []

    def test_submodules_resolve_as_attributes(self):
        # perfbench/trace_child.py reads each layer as getattr(relprime, name).
        out, _ = fresh_run(
            "import relprime\n"
            f"for name in {SUBMODULES!r}:\n"
            "    print(getattr(relprime, name).__name__)"
        )
        assert out.split() == [f"relprime.{name}" for name in SUBMODULES]
