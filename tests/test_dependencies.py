"""The package runs on the standard library alone.

``pyproject.toml`` declares no runtime dependencies; this test keeps it
true. A fresh interpreter imports every module under :mod:`repro` and
reports each newly loaded module that lives in an installed-packages
directory; any such module fails the test, whether it arrives through a
plain import or a module-level optional one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

_PROBE = """
import importlib, json, pkgutil, sys, sysconfig
before = set(sys.modules)
import repro
for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
    importlib.import_module(info.name)
roots = {sysconfig.get_paths()[key] for key in ("purelib", "platlib")}
loaded = set(sys.modules) - before
foreign = set()
for name in loaded:
    path = getattr(sys.modules[name], "__file__", None) or ""
    if any(path.startswith(root) for root in roots):
        foreign.add(name.split(".")[0])
foreign.discard("repro")
print(json.dumps({"repro": sum(n.startswith("repro.") for n in loaded),
                  "foreign": sorted(foreign)}))
"""


def test_importing_every_module_loads_no_installed_package():
    source_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [source_root] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    assert report["repro"] > 50, "the probe did not import the package"
    assert report["foreign"] == [], (
        f"third-party imports under repro: {report['foreign']}"
    )
