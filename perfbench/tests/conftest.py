import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
SOURCE = BENCH.parent / "src"
for path in (BENCH, SOURCE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
