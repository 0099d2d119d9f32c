"""Every output of scripts/output_corpus.py against the committed corpus.

On the platform the corpus records (numpy and Python versions, machine and
numpy's CPU features, apart from the half-precision ones in HALF_FEATURES)
every digest and summary value must match exactly.
Elsewhere numpy's exp, log and sinh may round differently in the last bit,
and an inertial run's steps follow, so only the summary values are checked:
terminations and exit codes exactly, point counts to 2%, and every other
value to 1e-6 relative or 1e-10 absolute, the accuracy of the floor event.
A change that moves outputs on purpose rewrites the corpus with
`python scripts/output_corpus.py --write tests/output_corpus.json` and
records the `--compare` report of the old one in CHANGES.md.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CORPUS = json.loads((ROOT / "tests" / "output_corpus.json").read_text(encoding="utf-8"))
# CPU features that numpy dispatches only half-precision loops on, which no
# output uses: a machine without them writes the same digests.
HALF_FEATURES = {"AVX512FP16", "AVX512_SPR"}


def load_script():
    path = ROOT / "scripts" / "output_corpus.py"
    spec = importlib.util.spec_from_file_location("output_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def corpus():
    return load_script().build()


def test_same_entries(corpus):
    assert sorted(corpus["entries"]) == sorted(CORPUS["entries"])


@pytest.mark.parametrize("name", sorted(CORPUS["entries"]))
def test_summary_values(corpus, name):
    want, got = CORPUS["entries"][name]["summary"], corpus["entries"][name]["summary"]
    assert sorted(got) == sorted(want)
    for key, value in want.items():
        if isinstance(value, float):
            assert got[key] == pytest.approx(value, rel=1e-6, abs=1e-10), key
        elif key == "points":
            assert got[key] == pytest.approx(value, rel=0.02), key
        else:
            assert got[key] == value, key


def _platform(record):
    """The platform record without HALF_FEATURES."""
    features = [name for name in record["cpu_features"] if name not in HALF_FEATURES]
    return {**record, "cpu_features": features}


def test_digests_on_the_recorded_platform(corpus):
    if _platform(corpus["platform"]) != _platform(CORPUS["platform"]):
        pytest.skip(f"corpus written on {CORPUS['platform']['machine']} with numpy "
                    f"{CORPUS['platform']['numpy']}; digests hold only there")
    assert corpus["entries"] == CORPUS["entries"]


def test_compare_reports_each_change():
    column = lambda *values: {"sha256": str(values), "first": values[0], "last": values[-1],
                              "min": min(values), "max": max(values)}
    entry = lambda t_end, points, h: {"summary": {"t_end": t_end, "points": points},
                                      "columns": {"h": column(*h)}}
    old = {"entries": {"a": entry(1.0, 3, [0.5, 0.1]), "b": entry(2.0, 4, [0.5, 0.2]),
                       "gone": entry(1.0, 1, [1.0])}}
    new = {"entries": {"a": entry(1.0, 3, [0.5, 0.1]), "b": entry(2.5, 5, [0.5, 0.25]),
                       "new": entry(1.0, 1, [1.0])}}
    assert load_script().compare(old, new) == [
        "a: unchanged",
        "b: points 4 -> 5; t_end 2.0e-01; h 2.0e-01",
        "gone: removed",
        "new: added",
    ]
