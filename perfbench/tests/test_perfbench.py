"""Self-tests of the benchmark: metric names, output checks, failure counting.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

sf = run.import_package()


@pytest.fixture(autouse=True)
def one_setup_child(monkeypatch):
    monkeypatch.setattr(run, "SETUP_CHILDREN", 1)


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_lists_match_benchmark_json():
    spec = _spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_short_run_emits_every_metric_and_passes_checks(name, trace):
    result, details = run.run_workload(name, seed=7, seconds=0.1, trace=trace, min_rounds=1)
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(expected)
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0, details["failures"]
    assert details["fail_frac"] == {"value": 0.0, "unit": "ratio"}
    assert result["attempted"] == sum(details["mix"].values()) >= 2


def test_seed_fixes_the_inputs():
    for w in workloads.WORKLOADS.values():
        first = [next(w.rounds(3)) for _ in range(2)]
        assert first[0] == first[1]
        assert next(w.rounds(3)) != next(w.rounds(4))


def _nonzero(value) -> bool:
    try:
        return float(value) != 0.0
    except (TypeError, ValueError):
        return False


def _corrupt_number(op, text):
    """Move the last nonzero number of the first row by one part in a million."""
    if op.fmt == "json":
        doc = json.loads(text)
        row = doc["rows"][0]
        for key in reversed(list(row)):
            value = row[key]
            if isinstance(value, dict) and _nonzero(value["re"]):
                value["re"] *= 1 + 1e-6
                break
            if isinstance(value, float) and _nonzero(value):
                row[key] = value * (1 + 1e-6)
                break
        return json.dumps(doc)
    lines = text.split("\n")
    cells = lines[1].split(",")
    last = max(i for i, cell in enumerate(cells) if _nonzero(cell) and "." in cell)
    cells[last] = repr(float(cells[last]) * (1 + 1e-6))
    lines[1] = ",".join(cells)
    return "\n".join(lines)


def _sample_ops():
    cfg = (0.5, 3.25, 1.5)
    return [
        workloads.Op("spectrum", cfg, {"N": 50, "format": "csv"}),
        workloads.Op("coeffs", cfg, {"function": "sawtooth", "N": 40, "n": 2, "format": "json"}),
        workloads.Op("coeffs", cfg, {"function": "offset-cosine", "N": 64}),
        workloads.Op("coeffs", cfg, {"function": "sawtooth", "N": 8, "n": 2, "method": "direct"}),
        workloads.Op("norms", cfg, {"function": "offset-cosine", "n": 2}),
        workloads.Op("norms", cfg, {"function": "synthetic:3.5", "r": 0.5, "N": 1000, "format": "csv"}),
        workloads.Op("converge", cfg, {"function": "sawtooth", "N": 32, "n": 1}),
        workloads.Op("converge", cfg, {"function": "synthetic:4", "N": 500, "n": 1, "format": "csv"}),
    ]


@pytest.mark.parametrize("op", _sample_ops(), ids=lambda op: " ".join(op.argv))
def test_checks_accept_true_output_and_reject_corrupted_output(op):
    rc, text = run.execute(sf, op)
    assert checks.check_op(op, rc, text)[0]
    assert not checks.check_op(op, rc, _corrupt_number(op, text))[0]
    assert not checks.check_op(op, rc, text[: len(text) // 2])[0]
    assert not checks.check_op(op, 2, text)[0]


def test_verify_and_readme_checks_reject_corruption():
    cfg = (0.5, 3.25, 1.5)
    op = workloads.Op("verify", cfg, {"N": 6})
    rc, text = run.execute(sf, op)
    assert checks.check_op(op, rc, text)[0]
    assert not checks.check_op(op, rc, text.replace('"fail": 0', '"fail": 1'))[0]
    assert not checks.check_op(op, 3, text)[0]

    op = workloads.Op("readme", cfg, {"N": 2000})
    rc, (cv, series, report) = run.execute(sf, op)
    assert checks.check_op(op, rc, (cv, series, report))[0]
    assert not checks.check_op(op, rc, (cv, series * (1 + 1e-6), report))[0]


def test_corrupted_outputs_count_as_failures():
    def corrupt(op, result):
        return result[: len(result) // 2] if isinstance(result, str) else result

    result, details = run.run_workload("expand", seed=7, seconds=0.1, trace=False,
                                       min_rounds=1, corrupt=corrupt)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert details["fail_frac"]["value"] == 1.0


def test_tracer_restores_the_package():
    tracer = run.Tracer()
    original = sf.cli.eigenvalue
    tracer.install()
    assert sf.cli.eigenvalue is not original
    assert sf.ladder.eigenvalue is sf.cli.eigenvalue
    tracer.uninstall()
    assert sf.cli.eigenvalue is original
    assert sf.spectral.TrigPolynomial.evaluate.__name__ == "evaluate"
    assert not hasattr(sf.spectral.TrigPolynomial.evaluate, "__wrapped__")


def test_tail_has_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(1, 101)])
    assert value == 90.0 and pct == 90.0
    assert run.tail([1.0, 2.0]) == (1.0, 50.0)


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "series", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
