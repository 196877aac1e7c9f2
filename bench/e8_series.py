"""Regenerate e8_series.json from the E8 series recorded in README.md.

    python3 bench/e8_series.py

The benchmark checks the computed E8 series against this file, so the
reference comes from the recorded text, never from a run of the program.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TERM = re.compile(r"([+-])\s*(\d*)x\^(\d+)")


def parse_readme(text: str) -> list[list[int]]:
    """Coefficient pairs [k, c] of the indented series after 'and yields'."""
    block = text.split("and yields", 1)[1].split("\n\n", 2)[1]
    body = " ".join(block.split())
    if not body.startswith("1 "):
        raise ValueError("the recorded E8 series no longer starts with its constant term")
    pairs = [[0, 1]]
    for sign, coef, k in TERM.findall(body):
        pairs.append([int(k), (-1 if sign == "-" else 1) * int(coef or 1)])
    return pairs


def main() -> int:
    pairs = parse_readme((ROOT / "README.md").read_text())
    out = Path(__file__).resolve().parent / "e8_series.json"
    out.write_text(json.dumps({"source": "README.md", "coefficients": pairs}) + "\n")
    print(f"wrote {len(pairs)} terms to {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
