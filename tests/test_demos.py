import hashlib
import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# sha256 prefixes of the stdout of the demos whose output is a schedule view,
# a PE statistic or a model figure; demo 03's busiest PE is the first of the
# most common, so its digest also pins the order in which PEs are counted.
PINNED_OUTPUT = {
    "02_decoder_schedules": "8d9f8cbd375730fc",
    "03_architecture_simulation": "7537d6a6c8c8bcbf",
    "04_complexity_comparison": "95eecfe69d0199ef",
}


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    if path.stem in PINNED_OUTPUT:
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == PINNED_OUTPUT[path.stem]
