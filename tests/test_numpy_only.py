"""The runtime needs numpy alone: scipy and mpmath may judge values in tests only."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# a fresh interpreter, so that no test module has imported either package first
SCRIPT = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from semifourier.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["verify", "--N", "6"]), main(["coeffs", "--function", "offset-cosine", "--N", "64"])]
print(codes)
print(sorted({name.split(".")[0] for name in sys.modules} & {"scipy", "mpmath"}))
"""


def test_cli_runs_without_scipy_or_mpmath():
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    codes, loaded = done.stdout.splitlines()
    assert codes == "[0, 0]"
    assert loaded == "[]"
