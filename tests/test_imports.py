"""Import footprint: the package and its CLI start without the dataclasses
module and what it drags in (inspect, and with it ast, dis and tokenize).

Each check runs in a fresh interpreter, so modules that pytest or other
tests have already imported cannot hide a new dependency.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import isorbit

SRC = str(Path(isorbit.__file__).resolve().parent.parent)
SCRIPT = """\
import sys
before = set(sys.modules)
import {module}
print(" ".join(sorted(set(sys.modules) - before)))
"""


@pytest.mark.parametrize("module", ["isorbit", "isorbit.cli"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT.format(module=module)],
                          env=env, capture_output=True, text=True, check=True)
    loaded = set(done.stdout.split())
    assert module in loaded  # the import happened here, not at start-up
    assert not loaded & {"dataclasses", "inspect"}
