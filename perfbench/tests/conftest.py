import sys
from pathlib import Path

# The benchmark's modules import each other as top-level modules, as they
# do when perfbench/run.py runs as a script; relprime comes from src.
HERE = Path(__file__).resolve().parent
for path in (HERE.parent, HERE.parents[1] / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
