"""The import surface: every export resolves, ``python -m textshape`` runs
the command line, and scipy loads only when a command decodes, and then
only the parts decode uses.

The commands run in a fresh interpreter, since this test process may have
loaded scipy already.
"""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import textshape
from textshape import cli, formats, netplan
from textshape.synth import arc_annotation, rect_annotation

SCIPY_PARTS = ("scipy.spatial", "scipy.sparse")   # Delaunay; connected components
CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(textshape.__file__).resolve().parents[1]))

CHILD = """
import json, sys
import textshape
from textshape import cli

def loaded():
    return sorted(m for m in sys.modules if m.startswith("scipy."))

root = sys.argv[1]
codes = [
    cli.main(["encode", root + "/gt", "totaltext", root + "/labels"]),
    cli.main(["eval", root + "/dets_ref", root + "/gt", "totaltext", "--report", root + "/r.txt"]),
    cli.main(["render", "--gt", root + "/gt/a.txt", "--det", root + "/dets_ref/a.txt",
              root + "/a.svg"]),
    cli.main(["netplan", "512", "512"]),
]
before = loaded()
codes.append(cli.main(["decode", root + "/labels", root + "/dets"]))
print(json.dumps({"codes": codes, "before": before, "after": loaded()}))
"""


def test_scipy_loaded_only_by_decode(tmp_path):
    gt = tmp_path / "gt"
    gt.mkdir()
    formats.write_annotation_file(gt / "a.txt", [rect_annotation(20, 20, 300, 60)], "totaltext")
    formats.write_annotation_file(gt / "b.txt", [arc_annotation(260, 260, 180, 56, 140)],
                                  "totaltext")
    assert cli.main(["encode", str(gt), "totaltext", str(tmp_path / "labels_ref")]) == 0
    assert cli.main(["decode", str(tmp_path / "labels_ref"), str(tmp_path / "dets_ref")]) == 0

    proc = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)], env=CHILD_ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])

    assert result["codes"] == [0] * 5
    assert result["before"] == []
    for part in SCIPY_PARTS:
        assert part in result["after"]
    assert [m for m in result["after"] if m.startswith("scipy.ndimage")] == []   # no ndimage.label
    for name in ("a", "b"):
        assert (tmp_path / "labels" / f"{name}.msrr").read_bytes() == (
            tmp_path / "labels_ref" / f"{name}.msrr"
        ).read_bytes()
        assert (tmp_path / "dets" / f"{name}.txt").read_text() == (
            tmp_path / "dets_ref" / f"{name}.txt"
        ).read_text()


def test_every_export_resolves():
    missing = [name for name in textshape.__all__ if not hasattr(textshape, name)]
    assert missing == []
    namespace: dict = {}
    exec("from textshape import *", namespace)
    assert set(textshape.__all__) <= namespace.keys()


def run_module(*args):
    return subprocess.run([sys.executable, "-m", "textshape", *args], env=CHILD_ENV,
                          capture_output=True, text=True, timeout=120)


def test_python_dash_m_runs_the_command_line():
    proc = run_module("netplan", "64", "64")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == netplan.format_plan(netplan.shape_plan(64, 64)) + "\n"


def test_main_module_exits_with_the_command_status(monkeypatch, capsys):
    # in process, so a line trace of the suite sees __main__ run
    monkeypatch.setattr(sys, "argv", ["textshape", "netplan", "64", "64"])
    with pytest.raises(SystemExit) as done:
        runpy.run_module("textshape", run_name="__main__")
    assert done.value.code == 0
    assert capsys.readouterr().out == netplan.format_plan(netplan.shape_plan(64, 64)) + "\n"


def test_python_dash_m_usage_error_exits_2():
    proc = run_module("netplan", "64")
    assert proc.returncode == 2
    assert "usage:" in proc.stderr
