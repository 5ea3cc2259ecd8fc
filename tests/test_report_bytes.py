"""Smoke test of tools/report_bytes.py, the fixed byte-identity command list."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "report_bytes.py"


def test_report_bytes_writes_one_strict_json_file_per_command(tmp_path):
    spec = importlib.util.spec_from_file_location("report_bytes", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main([str(tmp_path)]) == 0

    def refuse(name):
        raise ValueError("non-finite constant %s" % name)

    files = sorted(tmp_path.iterdir())
    assert len(files) == 34
    assert ({path.name for path in files}
            == {out for out, _ in module.COMMANDS} | set(module.STATE_FILES))
    for path in files:
        assert isinstance(json.loads(path.read_text(), parse_constant=refuse), dict)
