"""Import hygiene: the runtime depends on numpy and PyYAML only (scipy is a
test-only oracle), and every name a module of the package imports is used there.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_package_and_cli_import_without_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = (
        "import json, sys\n"
        "import diffrelay, diffrelay.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    assert json.loads(res.stdout.strip().splitlines()[-1]) == []


def test_package_binds_its_modules_and_re_exports_nothing():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = (
        "import json, types\n"
        "import diffrelay\n"
        "names = {n: isinstance(v, types.ModuleType) for n, v in vars(diffrelay).items()\n"
        "         if not n.startswith('_')}\n"
        "print(json.dumps(names, sort_keys=True))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    modules = ["analysis", "channel", "constellation", "decoders", "diffmod", "relay",
               "simkit", "specfun"]
    assert json.loads(res.stdout.strip().splitlines()[-1]) == dict.fromkeys(modules, True)


def test_every_imported_name_is_used():
    unused = {}
    for path in sorted((SRC / "diffrelay").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        if imported - used:
            unused[path.name] = sorted(imported - used)
    assert not unused
