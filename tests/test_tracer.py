"""The benchmark's layer tracer still finds every name it patches.

`perfbench/tracer.py` wraps functions of the package by module attribute.
A refactor that drops or renames one of them fails here, in a short run,
instead of failing every benchmark operation.  The tracer patches modules
for good, so it runs in a subprocess, which makes the benchmark's
verification calls too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

SCRIPT = """
import json, sys
from tracer import Tracer
from wegner2p import cli
from worker import run_verification
from workloads import TRACED_COUNTS

tracer = Tracer().install()
codes = [cli.main(["wegner-single", "--config", sys.argv[1], "--out", sys.argv[3]]),
         cli.main(["wegner-two", "--config", sys.argv[2], "--out", sys.argv[4]])]
layers = tracer.layer_metrics()
run_verification(1)
verified = tracer.layer_metrics()
traced = {name: verified[name] for name in TRACED_COUNTS["sv_large_verify"]}
print(json.dumps({"codes": codes, "layers": layers, "traced": traced}))
"""


def test_tracer_counts_single_and_two_volume_runs(tmp_path):
    single = {
        "dimension": 1, "radius": 1, "center": [[0], [0]],
        "dist": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "energy": 0.0, "epsilon": 0.05, "trials": 50, "master_seed": 1,
    }
    two = {
        "dimension": 1, "radius": 1, "center": [[0], [0]], "center_prime": [[100], [100]],
        "dist": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "epsilon": 0.05, "trials": 20, "conditioning_rounds": 1, "master_seed": 2,
    }
    paths = []
    for name, data in (("single.json", single), ("two.json", two)):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        paths.append(str(path))
    paths += [str(tmp_path / "single_report.json"), str(tmp_path / "two_report.json")]
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, *paths],
        capture_output=True,
        text=True,
        env={
            **os.environ,
            "PYTHONPATH": os.pathsep.join([str(PERFBENCH), *sys.path]),
            "PYTHONDONTWRITEBYTECODE": "1",
        },
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0]
    layers = result["layers"]
    # one substream per 1,024-trial block, plus one per conditioning round:
    # the single-volume block, then the frozen field and the two-volume block
    assert layers["potential.rng_derive_calls"] == 1 + 1 + 1
    assert layers["experiments.eigvalsh_matrices"] > 0
    assert layers["hamiltonian.template_calls"] == 3
    # with the verification calls, every count the benchmark's verifying
    # workload checks is above zero, as a traced iteration requires
    assert all(result["traced"].values()), result["traced"]
