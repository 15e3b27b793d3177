"""A fresh process pays for every module ``import bkcalc`` loads.

Each check starts a new interpreter and counts the modules an import adds
to ``sys.modules``; nothing is timed.  ``dataclasses`` brings ``inspect``
and, with it, ``ast``, ``dis`` and ``tokenize``; ``hashlib`` loads OpenSSL,
which only ``bk-table`` needs; ``click`` loads ``inspect`` too, and the CLI
parses its command line with the standard library instead.
"""

import functools
import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
_PROBE = """
import json, sys
before = set(sys.modules)
import {module}
print(json.dumps(sorted(set(sys.modules) - before)))
"""


@functools.lru_cache(maxsize=None)
def _modules_loaded_by(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(SRC), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run([sys.executable, "-c", _PROBE.format(module=module)],
                         env=env, capture_output=True, text=True,
                         check=True).stdout
    return frozenset(json.loads(out))


def test_import_bkcalc_loads_no_dataclasses_inspect_or_hashlib():
    loaded = _modules_loaded_by("bkcalc")
    assert "bkcalc.rootsys" in loaded
    assert loaded & {"dataclasses", "inspect", "hashlib", "_hashlib"} == set()


def test_import_bkcalc_cli_loads_no_hashlib():
    loaded = _modules_loaded_by("bkcalc.cli")
    assert "bkcalc.verify" in loaded
    assert loaded & {"hashlib", "_hashlib"} == set()


def test_import_bkcalc_cli_loads_no_click_or_inspect():
    loaded = _modules_loaded_by("bkcalc.cli")
    assert "bkcalc.cli" in loaded
    assert loaded & {"click", "inspect"} == set()
