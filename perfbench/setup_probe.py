"""Set-up probe: a fresh interpreter imports uwbsim from the checkout's src/,
builds the default LDPC code, and prints one line when it is ready for its
first operation.  run.py times it from spawn to that line."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# importing the package runs uwbsim/__init__.py, which imports every module
from uwbsim import ldpc  # noqa: E402

ldpc.default_code()
print("ready", flush=True)
