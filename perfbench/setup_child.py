"""Cold-path probe: time `import semifourier.cli` plus one CLI operation.

Usage: python3 perfbench/setup_child.py '<argv as a JSON list>'

Prints one JSON object {"rc": <exit code>, "setup_s": <seconds>}.  The
launcher runs this in a fresh interpreter with `src` on PYTHONPATH, so the
figure is what a CLI user pays on every invocation after interpreter start.
"""

import contextlib
import io
import json
import sys
import time


def main() -> int:
    argv = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    import semifourier.cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = semifourier.cli.main(argv)
    elapsed = time.perf_counter() - t0
    print(json.dumps({"rc": rc, "setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
