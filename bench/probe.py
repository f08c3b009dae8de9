"""Set-up probe, timed from outside by run.py as one fresh interpreter.

Imports the package, builds the CLI parser, and builds the points a
workload prepares before its first op, read from stdin as
{"points": [[p, q], ...], "pairs": [[left, right], ...]}.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import morseadic  # noqa: E402
from morseadic import cli  # noqa: E402

cli.build_parser()
spec = json.load(sys.stdin)
points = [morseadic.EpSeq.from_rational(p, q) for p, q in spec["points"]]
pairs = [morseadic.BiSeq(points[a], points[b]) for a, b in spec["pairs"]]
