"""`scripts/count_settings.py` (`make settings`) adds up its counts and
counts the package's source lines."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_total_is_the_sum_and_source_lines_are_the_files_lines():
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "count_settings.py")],
                         check=True, stdout=subprocess.PIPE, text=True).stdout
    figures = {}
    for line in out.splitlines():
        name, value = line.rsplit(None, 1)
        figures[name] = int(value)
    assert list(figures) == ["config keys", "CLI flags", "defaulted parameters", "total",
                             "source lines"]
    assert figures["total"] == (figures["config keys"] + figures["CLI flags"]
                                + figures["defaulted parameters"])
    sources = sorted((ROOT / "src" / "evoadapt").glob("*.py"))
    assert sources and figures["source lines"] == sum(
        len(path.read_text().splitlines()) for path in sources)
