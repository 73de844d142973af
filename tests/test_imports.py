"""The package's import graph stays free of modules it does not use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import schubfactor

# dataclasses pulls these in; no code in the package uses any of them
UNUSED = ("dataclasses", "inspect", "ast", "dis")


def test_importing_the_package_and_cli_loads_no_unused_module():
    # a fresh interpreter's own modules (site .pth files may preload some) are the baseline
    code = (
        "import json, sys\n"
        "baseline = set(sys.modules)\n"
        "import schubfactor, schubfactor.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - baseline)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(schubfactor.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    added = json.loads(result.stdout)
    assert "schubfactor.cli" in added
    assert [name for name in UNUSED if name in added] == []
