"""Smoke tests of the benchmark harness: every workload at its smoke size,
untraced and traced, must run, pass its own output checks and print every
metric BENCHMARK.json names.

    python3 -m pytest bench
"""

import itertools
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_workload(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_word_count_matches_brute_force():
    def words(width, left, max_width):
        yield ()
        if not left:
            return
        steps = [("cross", r, width) for r in range(1, width)]
        steps += [("cap", r, width - 2) for r in range(1, width)]
        if width + 2 <= max_width:
            steps += [("cup", r, width + 2) for r in range(1, width + 2)]
        for kind, r, new in steps:
            for rest in words(new, left - 1, max_width):
                yield ((kind, r),) + rest

    for max_width, max_letters in itertools.product(range(5), range(4)):
        brute = sum(sum(1 for _ in words(d, max_letters, max_width)) for d in range(max_width + 1))
        assert run.count_words(max_width, max_letters) == brute


def test_tracer_rebinds_every_import_site():
    code = (
        "import sys; sys.path.insert(0, %r)\n"
        "from tracer import Tracer\n"
        "t = Tracer(); t.install()\n"
        "from brauercalc import algebra, functors, rewrite, cli, diagram\n"
        "assert algebra.nf_compose is rewrite.nf_compose\n"
        "assert functors.normalize is rewrite.normalize is cli.normalize\n"
        "assert rewrite.compose_oracle is diagram.compose_oracle\n"
        "assert rewrite.normalize.__wrapped__ is not rewrite.normalize\n"
        "from brauercalc.params import preset\n"
        "algebra.mult_table(2, preset('brauer'))\n"
        "s = t.summary()\n"
        "assert s['algebra.calls'] == 1 and s['rewrite.calls'] >= 9, s\n"
        "t.uninstall()\n"
        "assert not hasattr(rewrite.normalize, '__wrapped__')\n" % BENCH
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr

