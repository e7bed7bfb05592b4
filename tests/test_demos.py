"""Smoke test of the demos: each runs against the current API, exits 0 and
writes nothing to stderr, with every warning turned into an error.

Demo 04 is left out: it takes about 18 s, and criterion 4 in
test_acceptance.py checks the same benchmark code.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("01_factorization_basics.py", "02_missing_data_masks.py",
         "03_classification_pipeline.py", "05_text_topics.py")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_without_error(demo):
    # warnings are errors here as in the suite, in the demo's pool processes too
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               PYTHONWARNINGS="error")
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
