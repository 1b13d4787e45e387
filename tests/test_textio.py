import ast
import re
from pathlib import Path

import numpy as np
import pytest

import birkhoff_lab
from birkhoff_lab import textio
from birkhoff_lab.errors import IoFailure
from birkhoff_lab.textio import json_text, write_csv, write_json, write_text

PACKAGE = Path(birkhoff_lab.__file__).parent


def _writes(tree: ast.AST) -> list[str]:
    """Calls that write a file by themselves: open(..., "w"/"a"/"x"),
    json.dump(...) and <path>.write_text/write_bytes(...)."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), None)
            if mode is not None and not (isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt")):
                found.append(f"open() at line {node.lineno}")
        elif isinstance(f, ast.Attribute) and f.attr == "dump" and getattr(f.value, "id", None) == "json":
            found.append(f"json.dump at line {node.lineno}")
        elif isinstance(f, ast.Attribute) and f.attr in ("write_text", "write_bytes") \
                and getattr(f.value, "id", None) != "textio":
            found.append(f".{f.attr} at line {node.lineno}")
    return found


def test_only_textio_writes_files():
    offenders = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "textio.py" and (found := _writes(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert offenders == {}
    assert _writes(ast.parse((PACKAGE / "textio.py").read_text(encoding="utf-8")))  # the guard sees it


def test_csv_cell_rule(tmp_path, monkeypatch):
    monkeypatch.setattr(textio, "BLOCK_CELLS", 14)  # two rows of six cells per block
    path = tmp_path / "sub" / "t.csv"
    write_csv(path, ["i", "x", "ok", "short", "none", 0.5],
              [np.arange(5), [0.1, 1.0, -0.0, 1e-300, 2 / 3], np.array([True, False, True, True, False]),
               np.array([1.5, 2.5]), [], np.arange(5, dtype=np.float32) / 3])
    assert path.read_bytes().decode("utf-8").splitlines() == [
        "i,x,ok,short,none,0.5",
        f"0,0.1,true,1.5,,{float(np.float32(0) / 3)!r}",
        f"1,1.0,false,2.5,,{float(np.float32(1) / 3)!r}",
        f"2,-0.0,true,,,{float(np.float32(2) / 3)!r}",
        f"3,1e-300,true,,,{float(np.float32(3) / 3)!r}",
        f"4,{2 / 3!r},false,,,{float(np.float32(4) / 3)!r}",
    ]
    assert b"\r" not in path.read_bytes()


def test_csv_rejects_cells_without_a_rule(tmp_path):
    with pytest.raises(TypeError):
        write_csv(tmp_path / "t.csv", ["s"], [np.array(["a"])])


def test_json_and_text(tmp_path):
    payload = {"b": [1, 0.1], "a": {"z": None, "y": True}}
    write_json(tmp_path / "d" / "p.json", payload)
    text = (tmp_path / "d" / "p.json").read_bytes().decode("utf-8")
    assert text == json_text(payload) + "\n"
    assert text.index('"a"') < text.index('"b"') and '\n  "a": {\n' in text
    write_text(tmp_path / "e" / "t.svg", "<svg/>\n")
    assert (tmp_path / "e" / "t.svg").read_bytes() == b"<svg/>\n"


def test_a_directory_that_cannot_be_made_is_named(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    textio.make_dir(tmp_path / "a" / "b")
    textio.make_dir(tmp_path / "a" / "b")  # already there
    assert (tmp_path / "a" / "b").is_dir()
    with pytest.raises(IoFailure, match=re.escape(f"cannot create directory {blocker / 'out'}: ")):
        write_text(blocker / "out" / "x.txt", "x")
