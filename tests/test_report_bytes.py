"""Smoke test of tools/report_bytes.py, the harness that records what the CLI
writes, prints and refuses."""

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

    reports = sorted(path for path in tmp_path.iterdir() if path.suffix == ".json")
    assert len(reports) == 34
    assert ({path.name for path in reports}
            == {module.output_of(argv) for argv in module.COMMANDS} - {None}
            | {name for name in module.LITERAL_FILES if not name.startswith("bad/")})
    for path in reports:
        assert isinstance(json.loads(path.read_text(), parse_constant=refuse), dict)
    assert ({path.name for path in tmp_path.iterdir()} - {path.name for path in reports}
            == {"bad", "stdout.txt", "failing.txt"})

    demos = sorted(SCRIPT.parents[1].glob("demos/*.py"))
    headers = [line for line in (tmp_path / "stdout.txt").read_text().splitlines()
               if line.startswith("$ ")]
    assert headers == (["$ specsep " + argv for argv in module.COMMANDS]
                       + ["$ python3 demos/" + demo.name for demo in demos])
    assert len(headers) == 36

    rows = (tmp_path / "failing.txt").read_text().split("$ specsep ")[1:]
    assert [row.split("\n", 1)[0] for row in rows] == module.FAILING
    assert len(rows) == 13
    for row in rows:
        stderr, _, code = row.rstrip("\n").split("\n", 1)[1].rpartition("\n")
        assert stderr
        assert code.startswith("exit ") and int(code[len("exit "):]) != 0

    for path in tmp_path.rglob("*"):
        if path.is_file():
            assert str(tmp_path) not in path.read_text()
