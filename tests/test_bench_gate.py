"""The shared bench gate helper (``benchmarks/gate.py``) and the CI spellings
of every bench gate.

``gate.py`` lives outside the package, so it is imported by path; every
``record`` call here writes a ``tmp_path`` perf file, never the committed
``BENCH_PERF.json``.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CI = ROOT / ".github" / "workflows" / "ci.yml"

_spec = importlib.util.spec_from_file_location(
    "bench_gate", ROOT / "benchmarks" / "gate.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def _perf(tmp_path, doc):
    path = tmp_path / "BENCH_PERF.json"
    path.write_text(json.dumps(doc))
    return path


class TestRecord:
    def test_merge_keeps_sibling_keys(self, tmp_path):
        path = _perf(tmp_path, {"schema": 1, "trajectory": [
            {"pr": 9, "label": "kernel", "smoke_normalized": {"k": 1.0},
             "clients_simulated_per_s": 5.0}]})
        gate.record(9, row={"clients_simulated_per_s": 7.0,
                            "herd_scale_speedup": 3.0}, path=path)
        assert json.loads(path.read_text())["trajectory"] == [
            {"pr": 9, "label": "kernel", "smoke_normalized": {"k": 1.0},
             "clients_simulated_per_s": 7.0, "herd_scale_speedup": 3.0}]

    def test_missing_row_is_created_at_the_end(self, tmp_path):
        path = _perf(tmp_path, {"schema": 1, "trajectory": [{"pr": 4}]})
        gate.record(13, row={"speedup": 2.0}, path=path)
        assert json.loads(path.read_text())["trajectory"] == [
            {"pr": 4}, {"pr": 13, "speedup": 2.0}]

    def test_section_is_set_and_the_rest_kept(self, tmp_path):
        path = _perf(tmp_path, {"schema": 1, "trajectory": [{"pr": 4}],
                                "herd_scale": {"speedup": 1.0},
                                "annotation_query": {"speedup": 9.0}})
        gate.record(13, section="herd_scale", payload={"speedup": 2.0},
                    path=path)
        doc = json.loads(path.read_text())
        assert doc["herd_scale"] == {"speedup": 2.0}
        assert doc["annotation_query"] == {"speedup": 9.0}
        assert doc["trajectory"] == [{"pr": 4}]  # no row without ``row``

    def test_missing_file_gets_the_schema_header(self, tmp_path):
        path = tmp_path / "BENCH_PERF.json"
        gate.record(13, row={"speedup": 2.0}, path=path)
        doc = json.loads(path.read_text())
        assert doc["schema"] == 1 and doc["note"]
        assert doc["trajectory"] == [{"pr": 13, "speedup": 2.0}]


def test_write_result_writes_one_text_file(tmp_path):
    gate.write_result("demo", "line one\nline two", directory=tmp_path)
    assert (tmp_path / "demo.txt").read_text() == "line one\nline two\n"


class TestRemeasure:
    @staticmethod
    def scripted(outcomes):
        """A measure that returns the next scripted failure list."""
        headings = []

        def measure(heading):
            headings.append(heading)
            return outcomes[len(headings) - 1]

        return headings, measure

    def test_passes_when_the_second_attempt_is_clean(self, capsys):
        headings, measure = self.scripted([["too slow"], []])
        assert gate.remeasure("demo", measure, lambda found: found) == 0
        assert headings == ["demo (attempt 1/3)", "demo (attempt 2/3)"]
        out = capsys.readouterr().out
        assert out.count("re-measuring to rule out machine noise") == 1
        assert "demo ok" in out

    def test_stops_after_the_first_clean_attempt(self, capsys):
        headings, measure = self.scripted([[], ["x"], ["x"]])
        assert gate.remeasure("demo", measure, lambda found: found) == 0
        assert headings == ["demo (attempt 1/3)"]
        assert "re-measuring" not in capsys.readouterr().out

    def test_fails_after_three_attempts(self, capsys):
        headings, measure = self.scripted([["too slow"]] * 3)
        assert gate.remeasure("demo", measure, lambda found: found) == 1
        assert len(headings) == gate.ATTEMPTS == 3
        captured = capsys.readouterr()
        assert captured.out.count("re-measuring") == 2
        assert "demo FAILED across 3 attempts: too slow" in captured.err


def test_ci_bench_spellings_resolve():
    """Every bench CI runs takes the form CI runs it in.

    A ``python benchmarks/<f>.py <flags>`` call needs a ``__main__`` entry
    defining each flag (a script whose ``main`` is gone exits 0 and the
    gate passes silently); a ``pytest benchmarks/<f>.py`` call needs a
    ``test_`` function.
    """
    text = CI.read_text()
    scripts = re.findall(r"python (benchmarks/\w+\.py)((?: --[\w-]+)*)", text)
    tested = re.findall(r"pytest (benchmarks/\w+\.py)", text)
    assert scripts and tested
    for name, flags in scripts:
        source = (ROOT / name).read_text()
        assert 'if __name__ == "__main__":' in source, name
        for flag in flags.split():
            assert f'add_argument("{flag}"' in source, (name, flag)
    for name in tested:
        tree = ast.parse((ROOT / name).read_text())
        assert any(isinstance(node, ast.FunctionDef)
                   and node.name.startswith("test_")
                   for node in tree.body), name
