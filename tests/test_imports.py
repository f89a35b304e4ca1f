"""The names that the benchmark harness imports from the package still exist.

The harness under perfbench/ is run against each commit as it stands, so a
name moved or deleted here breaks the benchmark; its own tests are not part
of this suite.  The imports are read from its sources with ast, not run.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def cbs2_imports():
    """(file, module, name) of each `from cbs2... import name` and each
    `import cbs2...` (name None) in the harness sources."""
    found = []
    for path in sorted(PERFBENCH.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                    and node.module.split(".")[0] == "cbs2":
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [
                    (path.name, alias.name, None)
                    for alias in node.names if alias.name.split(".")[0] == "cbs2"
                ]
    return found


def test_perfbench_imports_from_cbs2_resolve():
    imports = cbs2_imports()
    # the harness reads the expansion, the dense reference and the engine
    names = {name for _, _, name in imports}
    assert {"build_expansion", "free_generator", "zeroth_steady_state", "SpectrumEngine"} <= names
    missing = []
    for file, module, name in imports:
        target = importlib.import_module(module)
        if name is None or hasattr(target, name):
            continue
        try:
            importlib.import_module(f"{module}.{name}")
        except ModuleNotFoundError:
            missing.append(f"{file}: from {module} import {name}")
    assert not missing, missing
