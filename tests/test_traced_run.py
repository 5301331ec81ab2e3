"""The benchmark's span tracer still sees every pipeline phase.

perfbench/trace.py wraps names of spc.cli, spc.pipeline and spc.consensus
where their callers look them up, so a refactor that drops one of those
names or bypasses it would zero a phase of a traced run without failing any
other test.  The traced run is a subprocess, so the tracer's patches never
reach this process.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TINY_INI = """
[spc]
n_members = 3
latent_dim = 4
pretrain_epochs = 2
loop_epochs = 1
max_iterations = 2
plateau_patience = 3
hidden_widths = 16, 8

[blobs]
n_clusters = 3
points_per_cluster = 20
ambient_dim = 8
centroid_separation = 9.0
"""


def test_a_traced_run_has_time_in_every_pipeline_phase(tmp_path, monkeypatch):
    config = tmp_path / "tiny.ini"
    config.write_text(TINY_INI)
    marks, spans = tmp_path / "marks.json", tmp_path / "spans.json"
    command = [
        sys.executable, "-m", "perfbench.child", "--marks", str(marks), "--spans", str(spans),
        "--", "run", "--config", str(config), "--out", str(tmp_path / "out"),
    ]
    env = dict(os.environ, PYTHONPATH="src")
    subprocess.run(command, cwd=ROOT, env=env, check=True, timeout=120)
    assert json.loads(marks.read_text())["exit_code"] == 0

    monkeypatch.syspath_prepend(ROOT)
    from perfbench import trace

    walls = trace.phase_walls(json.loads(spans.read_text()))
    assert set(walls) == set(trace.PHASES)
    assert all(wall > 0 for wall in walls.values()), walls
