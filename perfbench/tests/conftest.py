import sys
from pathlib import Path

# The benchmark is a directory of scripts, not an installed package.
sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
