"""perfbench's tracer wraps rvflkit functions by name: each must still exist."""

import os
import subprocess
import sys
from pathlib import Path

import rvflkit

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_span_target_exists(tmp_path):
    # a traced perfbench run reports a layer whose function is gone as "not measured"
    src = str(Path(rvflkit.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import spans; "
            "print(spans.Tracer(sys.argv[2]).install())")
    done = subprocess.run([sys.executable, "-c", code, str(PERFBENCH), str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout == "[]\n"  # also: the import prints nothing
