import re
import subprocess
import sys
from pathlib import Path

DIGEST = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"
EXPECTED = DIGEST.with_suffix(".txt")


def test_output_digest_prints_one_line_per_case():
    # every byte-identical claim diffs this tool's output across two trees, and the committed
    # file holds the values this tree must print: a change to any output fails here
    out = subprocess.run([sys.executable, str(DIGEST)], capture_output=True, text=True,
                         check=True, timeout=300)
    lines = out.stdout.splitlines()
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines), lines
    names = [line.split()[0] for line in lines]
    assert len(set(names)) == len(names) == 96
    assert lines == EXPECTED.read_text().splitlines()
