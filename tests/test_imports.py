"""The package's import graph stays free of modules it does not use, and its combinatorial layer free of the rest."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import schubfactor

# dataclasses pulls in the first four, which no code in the package uses; the CLI
# imports traceback (with linecache and tokenize) only to report an internal error
UNUSED = ("dataclasses", "inspect", "ast", "dis", "traceback", "linecache", "tokenize")


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


# the combinatorial layer: no module here may import the polynomial layer or anything above it
COMBINATORIAL = ("composition", "permutation", "wset")


def _package_imports(module: str) -> set[str]:
    """The schubfactor modules that `module`'s source imports, relative or absolute."""
    source = (Path(schubfactor.__file__).parent / f"{module}.py").read_text()
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module else [alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("schubfactor"):
            found.add(node.module)
        elif isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names if alias.name.startswith("schubfactor"))
    return found


def test_combinatorial_modules_import_only_each_other():
    for module in COMBINATORIAL:
        assert _package_imports(module) <= set(COMBINATORIAL), module
    assert _package_imports("wset") == {"composition", "permutation"}
