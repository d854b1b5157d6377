"""The normal-CDF ufuncs: loaded straight from scipy's compiled module, or through the public import."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import scipy.special

import mortdecomp
from mortdecomp import _phi

SRC = str(Path(mortdecomp.__file__).resolve().parents[1])


def run_fresh(code: str) -> None:
    """Run ``code`` in a new interpreter that imports this checkout's package; fail on a non-zero exit."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_names_are_the_scipy_special_ufuncs():
    assert _phi.ndtr is scipy.special.ndtr
    assert _phi.ndtri is scipy.special.ndtri
    assert _phi.log_ndtr is scipy.special.log_ndtr


def test_cli_import_skips_the_package_init_and_a_later_import_is_real():
    run_fresh(
        """
        import sys

        import mortdecomp.cli
        from mortdecomp import _phi

        # the direct load ran: the compiled module is here, the package init is not
        assert "scipy.special._ufuncs" in sys.modules
        assert "scipy.special" not in sys.modules
        assert "scipy.special._support_alternative_backends" not in sys.modules

        import scipy
        import scipy.special

        assert sys.modules["scipy.special"] is scipy.special
        assert scipy.special.__file__.endswith("__init__.py")
        assert hasattr(scipy.special, "gammaln")
        assert scipy.special.ndtr is _phi.ndtr
        assert scipy.special.ndtri is _phi.ndtri
        assert scipy.special.log_ndtr is _phi.log_ndtr
        """
    )


def test_failed_direct_load_falls_back_and_leaves_no_half_loaded_module():
    run_fresh(
        """
        import importlib
        import sys

        real_import_module = importlib.import_module
        added = []
        looked_up_after_failure = []


        class Recorder:
            failed = False

            def find_spec(self, name, path=None, target=None):
                if self.failed and name.startswith("scipy.special"):
                    looked_up_after_failure.append(name)
                return None


        recorder = Recorder()
        sys.meta_path.insert(0, recorder)


        def load_then_fail(name, package=None):
            # fails once, after loading: scipy.special's own init calls import_module too
            importlib.import_module = real_import_module
            before = set(sys.modules)
            real_import_module(name, package)
            added.extend(set(sys.modules) - before)
            recorder.failed = True
            raise ImportError("direct load made to fail")


        importlib.import_module = load_then_fail
        from mortdecomp import _phi

        import scipy
        import scipy.special

        assert "scipy.special._ufuncs" in added
        assert scipy.special is sys.modules["scipy.special"]
        assert scipy.special.__file__.endswith("__init__.py")
        assert scipy.special.ndtr is _phi.ndtr
        assert scipy.special.ndtri is _phi.ndtri
        assert scipy.special.log_ndtr is _phi.log_ndtr
        # every module the failed attempt added was dropped, then imported
        # afresh by the package init, not reused from under the stub
        stale = [name for name in added if name in sys.modules and name not in looked_up_after_failure]
        assert stale == [], stale
        """
    )
