"""Start-up: the package imports lazily, and only a command started from
the shell starts OpenBLAS at one thread (``OPENBLAS_NUM_THREADS=1``
before numpy loads, unless the user set it).  Each start-up test runs in
a fresh interpreter, since numpy and its OpenBLAS load once per process."""

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import mortdecomp

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(mortdecomp.__file__).resolve().parents[1])

# Reports the thread count of every OpenBLAS this process has loaded (read from /proc/self/maps).
BLAS_THREADS = """
import ctypes

def blas_threads():
    libraries = sorted({line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line})
    counts = {}
    for path in libraries:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                get = getattr(lib, symbol)
                get.argtypes, get.restype = [], ctypes.c_int
                counts[path] = get()
                break
    return counts
"""


def run_fresh(code: str, **env_overrides) -> None:
    """Run ``code`` in a new interpreter that imports this checkout's package, with
    ``OPENBLAS_NUM_THREADS`` unset unless given; fail on a non-zero exit."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(env_overrides)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_package_import_loads_no_numpy_and_changes_no_environment():
    run_fresh(
        """
        import os
        import sys

        before = dict(os.environ)
        import mortdecomp

        assert "numpy" not in sys.modules
        assert dict(os.environ) == before
        assert mortdecomp.__version__
        """
    )


def test_cli_import_changes_no_environment():
    run_fresh(
        """
        import os
        import sys

        before = dict(os.environ)
        import mortdecomp.cli

        assert "numpy" in sys.modules
        assert dict(os.environ) == before
        """
    )


def test_cli_import_loads_no_openssl():
    # hashlib loads OpenSSL's libcrypto (about 3.4 MB of RSS); only run's manifest hashes.
    # numpy 1.x imports numpy.random (and so hashlib) with numpy itself, so only what cli adds is checked.
    run_fresh(
        """
        import sys

        import numpy
        import scipy.special

        before = "_hashlib" in sys.modules
        import mortdecomp.cli

        assert ("_hashlib" in sys.modules) == before
        """
    )


def test_every_export_resolves_and_is_listed():
    run_fresh(
        """
        import sys

        import mortdecomp

        listed = dir(mortdecomp)
        assert "numpy" not in sys.modules
        assert len(mortdecomp.__all__) == len(set(mortdecomp.__all__)) > 0
        for name in mortdecomp.__all__:
            assert name in listed, name
            value = getattr(mortdecomp, name)
            # cached: the next lookup finds the attribute itself, not __getattr__
            assert vars(mortdecomp)[name] is value
            assert value.__module__.startswith("mortdecomp."), name
        from mortdecomp import fit, sampler
        assert fit is sampler.fit
        """
    )


def test_unknown_name_raises_and_a_submodule_still_imports():
    run_fresh(
        """
        import sys

        import mortdecomp

        try:
            mortdecomp.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise AssertionError("an unknown attribute resolved")
        from mortdecomp import cli, decompose

        assert cli is sys.modules["mortdecomp.cli"]
        assert decompose is sys.modules["mortdecomp.decompose"]
        """
    )


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="reads /proc/self/maps and /proc/self/task")
def test_module_start_sets_one_blas_thread_before_numpy_loads():
    run_fresh(
        BLAS_THREADS
        + """
import os
import runpy
import sys

sys.argv = ["mortdecomp", "--version"]
try:
    runpy.run_module("mortdecomp.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
counts = blas_threads()
assert len(counts) >= 1 and set(counts.values()) == {1}, counts
assert len(os.listdir("/proc/self/task")) == 1, os.listdir("/proc/self/task")
"""
    )


def test_module_start_keeps_the_users_value():
    run_fresh(
        """
        import os
        import runpy
        import sys

        sys.argv = ["mortdecomp", "--version"]
        try:
            runpy.run_module("mortdecomp.cli", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            assert exc.code == 0, exc.code
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
        """,
        OPENBLAS_NUM_THREADS="2",
    )


def test_console_script_sets_the_default_before_numpy_loads():
    # the [project.scripts] target, called as the wrapper that pip installs calls it
    scripts = (ROOT / "pyproject.toml").read_text(encoding="utf-8").split("[project.scripts]")[1]
    module, attr = re.search(r'^mortdecomp = "([\w.]+):(\w+)"$', scripts, re.MULTILINE).groups()
    run_fresh(
        f"""
        import os
        import re
        import sys

        class NumpyWatch:
            # records the variable at the moment numpy is first looked up
            seen = []

            def find_spec(self, name, path=None, target=None):
                if name == "numpy" and not self.seen:
                    self.seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
                return None

        sys.meta_path.insert(0, NumpyWatch())
        from {module} import {attr}

        sys.argv = ["mortdecomp", "--version"]
        try:
            sys.argv[0] = re.sub(r"(-script\\.pyw|\\.exe)?$", "", sys.argv[0])
            sys.exit({attr}())
        except SystemExit as exc:
            assert exc.code == 0, exc.code
        assert NumpyWatch.seen == ["1"], NumpyWatch.seen
        """
    )



def test_a_design_and_its_decomposition_load_no_numpy_ma():
    # numpy.ma costs about 10 ms and 1.3 MB of RSS; on numpy 2, np.median, np.quantile, np.percentile
    # and a bare np.unique each load it
    probe = subprocess.run([sys.executable, "-c", "import sys, numpy; print('numpy.ma' in sys.modules)"],
                           capture_output=True, text=True, check=True)
    if probe.stdout.strip() == "True":
        pytest.skip("import numpy loads numpy.ma, as numpy 1.x does")
    run_fresh(
        """
        import sys

        import numpy as np

        from mortdecomp.dataset import SurveySample, build_design, compute_centering, default_schema, pool_samples
        from mortdecomp.decompose import posterior_decompose
        from mortdecomp.sampler import PosteriorDraws

        rng = np.random.default_rng(5)

        def sample(survey_id, n):
            interval = rng.uniform(10.0, 60.0, n)
            interval[::4] = np.nan  # imputed at the median
            columns = {
                "wealth_rank": rng.uniform(0.0, 1.0, n), "maternal_education": rng.uniform(0.0, 12.0, n),
                "maternal_age": rng.uniform(16.0, 43.0, n), "birth_order": rng.integers(1, 7, n),
                "birth_interval": interval, "sex": rng.choice(["female", "male"], n),
                "residence": rng.choice(["rural", "urban"], n),
            }
            return SurveySample.from_columns(survey_id, rng.integers(0, 2, n), np.arange(n) % 20, columns)

        schema = default_schema()
        s1, s2 = sample("S1", 300), sample("S2", 300)
        centering, pooled = compute_centering(s1, schema), pool_samples(s1, s2)
        d1, d2 = (build_design(s, schema, centering, pooled) for s in (s1, s2))
        draws = [PosteriorDraws(sid, rng.normal(0.0, 0.1, (100, d1.n_cols)), rng.uniform(0.1, 0.3, 100),
                                d1.column_groups) for sid in ("S1", "S2")]
        posterior_decompose(d1, d2, *draws, years_between=14.0)
        assert "numpy.ma" not in sys.modules
        """
    )
