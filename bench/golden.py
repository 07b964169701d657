"""Golden artifacts: every file one fixed item of each workload produces.

A later build must reproduce them.  A file is either bitwise identical, or
its text equals the golden text once numbers are masked and every number
agrees within MAX_REL_DIFF, measured as |x - y| / max(1, |x|, |y|) so that
residuals near zero are compared absolutely.  That measure is at most 2;
text that differs beyond its numbers, or a non-finite difference, reads 2.
"""

import gzip
import math
import os
import re

GOLDEN_SEED = 20210325
MAX_REL_DIFF = 1e-12
DIFFERENT_TEXT = 2.0
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|-?Infinity|NaN|-?inf|nan")


def golden_path(workload, artifact):
    return os.path.join(GOLDEN_DIR, workload, os.path.basename(artifact) + ".gz")


def write(workload, artifact):
    path = golden_path(workload, artifact)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(artifact, "rb") as src:
        data = src.read()
    # mtime=0 keeps the stored bytes independent of when they were written
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(data)


def compare(workload, artifact):
    """(identical, max relative difference); DIFFERENT_TEXT when the text differs."""
    with gzip.open(golden_path(workload, artifact), "rt", encoding="ascii") as fh:
        want = fh.read()
    with open(artifact, "r", encoding="ascii") as fh:
        got = fh.read()
    if got == want:
        return True, 0.0
    if _NUMBER.sub("#", got) != _NUMBER.sub("#", want):
        return False, DIFFERENT_TEXT
    worst = 0.0
    for x, y in zip(map(float, _NUMBER.findall(got)), map(float, _NUMBER.findall(want))):
        if x != y:
            diff = abs(x - y) / max(1.0, abs(x), abs(y))
            worst = max(worst, diff if math.isfinite(diff) else DIFFERENT_TEXT)
    return False, worst
