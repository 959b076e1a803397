import os
import subprocess
import sys

import hietan


def test_star_import_resolves_all():
    namespace: dict = {}
    exec("from hietan import *", namespace)
    missing = [name for name in hietan.__all__ if name not in namespace]
    assert not missing
    assert len(set(hietan.__all__)) == len(hietan.__all__)


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    """Only ``cv``'s statistics need ``scipy.stats``, which is slow to import,
    so no module imports it at load time."""
    code = "import sys, hietan.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
