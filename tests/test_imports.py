"""Import footprint: the package and its CLI start without the dataclasses
module and what it drags in (inspect, and with it ast, dis and tokenize),
and neither an import nor a whole CLI run loads argparse, typing or
pathlib, each of which costs milliseconds at every start. The exact
check of --oracle-check (isorbit.check) loads only when the flag asks
for it.

Each check runs in a fresh interpreter, so modules that pytest or other
tests have already imported cannot hide a new dependency. The checks of
the slow modules start it with -S, since the site module can import
typing and pathlib before isorbit does.
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
    assert not loaded & {"dataclasses", "inspect", "isorbit.check"}


# What no start of isorbit may load: argparse, gettext and locale (which
# argparse brings in), typing, pathlib, and dataclasses with inspect. With
# -S the interpreter imports no site packages first, so every module loaded
# at the end was loaded by isorbit.
SLOW = {"argparse", "gettext", "locale", "typing", "pathlib", "dataclasses", "inspect"}
MAIN = """\
from isorbit.cli import main
try:
    print(main({argv!r}))
except SystemExit as e:
    print(e.code)
"""


def _run_without_site(code, cwd):
    """The lines code prints, then the modules loaded at its end."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    code += '\nimport sys\nprint(" ".join(sorted(sys.modules)))\n'
    done = subprocess.run([sys.executable, "-S", "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    *printed, loaded = done.stdout.splitlines()
    return printed, set(loaded.split())


@pytest.mark.parametrize("module", ["isorbit", "isorbit.cli"])
def test_import_without_site_loads_no_slow_module(tmp_path, module):
    _, loaded = _run_without_site(f"import {module}", tmp_path)
    assert module in loaded
    assert not loaded & (SLOW | {"isorbit.check"})


@pytest.mark.parametrize("argv,status", [
    (["--gens", "gens.json", "--box", "-1..0,0..1", "--output", "out"], "0"),
    (["--gens", "gens.json", "--box=-1..0,0..1", "--format", "tsv", "--output", "out"], "0"),
    (["--gens", "gens.json", "--output", "out"], "2"),
    (["--gens", "gens.json", "--box", "-1..0,0..1", "--output", "out", "--oracle-check"], "0"),
], ids=["json", "tsv", "usage", "oracle-check"])
def test_run_without_site_loads_no_slow_module(tmp_path, argv, status):
    (tmp_path / "gens.json").write_text(
        '{"n": 2, "generators": [{"type": "translation", "v": [1, 1]}, '
        '{"type": "negation", "signs": [-1, -1]}]}', encoding="utf-8")
    printed, loaded = _run_without_site(MAIN.format(argv=argv), tmp_path)
    assert printed == [status]
    assert (tmp_path / "out").exists() == (status == "0")
    assert not loaded & SLOW
    assert ("isorbit.check" in loaded) == ("--oracle-check" in argv)
