"""Generate ``momtail/_airy_anchors.py``, the anchors of specfun's Airy evaluator.

Each anchor x_j = -32 + j / 16, j = 0 .. 768, holds Ai(x_j) and Ai'(x_j) from
40-digit mpmath, each as the nearest float and the nearest float to the rest,
in their shortest repr. Run from the repository root to rewrite the module::

    python tests/airy_anchors.py

``test_specfun`` checks that the committed module is this script's output
byte for byte.
"""

from pathlib import Path

import mpmath

TARGET = Path(__file__).resolve().parents[1] / "src" / "momtail" / "_airy_anchors.py"
FIRST, PER_UNIT, COUNT = -32, 16, 769


def _hi_lo(value) -> str:
    """The float nearest ``value`` and the float nearest what it leaves."""
    hi = float(value)
    return f"{hi!r} {float(value - hi)!r}"


def source() -> str:
    """The text of the anchor module."""
    with mpmath.workdps(40):
        rows = []
        for j in range(COUNT):
            x = mpmath.mpf(FIRST) + mpmath.mpf(j) / PER_UNIT
            rows.append(f"{_hi_lo(mpmath.airyai(x))} {_hi_lo(mpmath.airyai(x, derivative=1))}\n")
    return ('"""Ai(x) and Ai\'(x) at x = -32 + j / 16, j = 0 .. 768, one x a line, each as\n'
            "the float nearest its 40-digit mpmath value and the float nearest the\n"
            "rest. Text, because one string compiles faster than 3,076 float\n"
            'literals. Generated by tests/airy_anchors.py; do not edit.\n"""\n\n'
            'ANCHORS = """\n' + "".join(rows) + '"""\n')

if __name__ == "__main__":
    TARGET.write_text(source())
