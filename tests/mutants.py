"""Mutants the test suite must kill.

Each entry is one small fault put into the program: (file under the
repository root, exact old text, new text, test files).  For each entry
the script copies ``src`` and ``tests`` into a fresh temporary
directory, replaces the old text, which must occur there exactly once,
with the new text, and runs the entry's test files with ``pytest -x -q``.
A mutant is killed when those tests fail.  The script exits 1 when a
mutant survives or an edit no longer applies.  Run it from anywhere,
with pytest and hypothesis installed:

    python tests/mutants.py

Uses the standard library only.  A surviving mutant is a missing test:
add the test, do not drop the mutant.  Code that is deleted takes its
mutants with it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MORSE = "src/knotlab/morse.py"
DIAGRAM = "src/knotlab/diagram.py"
SEIFERT = "src/knotlab/seifert.py"
SEQUIV = "src/knotlab/sequiv.py"

MUTANTS = [
    # union-find: the parity dropped from union
    (MORSE, "want = pa ^ pb ^ parity", "want = pa ^ pb", ["tests/test_morse.py"]),
    # union-find: rel not stored when a root goes under another
    (MORSE, "        self.rel[ra] = want\n", "", ["tests/test_morse.py"]),
    # union-find: the joined flag inverted
    (MORSE, "self.rel[ra] = want\n        return True", "self.rel[ra] = want\n        return False",
     ["tests/test_morse.py"]),
    # finish names each arc set by its largest arc, not its smallest
    (MORSE, "for a in sorted(self._cupped):", "for a in sorted(self._cupped, reverse=True):",
     ["tests/test_morse.py"]),
    # finish names each arc set by its root
    (MORSE, "names[a] = smallest.setdefault(self._arcs.find(a)[0], a)", "names[a] = self._arcs.find(a)[0]",
     ["tests/test_morse.py"]),
    # a cup records only one of the arcs it joins
    (MORSE, "self._cupped += arc_a, arc_b", "self._cupped += arc_a,", ["tests/test_morse.py"]),
    # the turn rule reads the other strand's direction
    (MORSE, 'turn = 1 + 2 * dr if over == "L" else 2 * dl', 'turn = 1 + 2 * dl if over == "L" else 2 * dr',
     ["tests/test_morse.py"]),
    # the sign rule's direction test flipped
    (MORSE, "(1 if dl == dr else -1)", "(1 if dl != dr else -1)", ["tests/test_morse.py"]),
    # a cup no longer forces opposite directions where its ends meet
    (MORSE, "par_a ^ par_b ^ 1", "par_a ^ par_b", ["tests/test_morse.py"]),
    # a cup joins two labels without a word
    (MORSE, "if label_a != label_b:", "if False:", ["tests/test_morse.py"]),
    # the Arf sign of V(i) flipped
    (DIAGRAM, "arf_sign = 1 if abs(at_minus_one) % 8 in (1, 7) else -1",
     "arf_sign = -1 if abs(at_minus_one) % 8 in (1, 7) else 1", ["tests/test_diagram.py"]),
    # the Jones read-off ignores the writhe's parity in its sign
    (DIAGRAM, "sign = -1 if writhe % 2 else 1", "sign = 1", ["tests/test_diagram.py"]),
    # the V'(1) moment is never checked
    (DIAGRAM, '("V\'(1) = 0", moment == 0)', '("V\'(1) = 0", True)', ["tests/test_diagram.py"]),
    # det T of every 2x2 witness taken as +1
    (SEQUIV, "eps = (m01 - m10) * (t01 - t10)", "eps = 1", ["tests/test_sequiv.py"]),
    # a first row that is not primitive is not refused
    (SEQUIV, "if g != 1:  # no T with det +-1 has r0 as a row", "if not g:", ["tests/test_sequiv.py"]),
    # the signature's orientation flipped
    (SEIFERT, "sig += 1 if (p > 0) == (prev > 0) else -1", "sig += -1 if (p > 0) == (prev > 0) else 1",
     ["tests/test_seifert.py"]),
]


def run(path: str, old: str, new: str, tests: list[str]) -> str:
    """'killed' and the first failing test, 'survived', or why the
    mutant could not be tried."""
    with tempfile.TemporaryDirectory(prefix="knotlab-mutant-") as tmp:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp, part),
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        target = Path(tmp, path)
        text = target.read_text()
        if text.count(old) != 1:
            return f"old text found {text.count(old)} times, not once"
        target.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(Path(tmp, "src")), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *tests],
            cwd=tmp, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    # pytest exits 1 when a test failed; any other status means the run
    # itself went wrong (collection error, usage error, no tests)
    if done.returncode == 1:
        failed = [line for line in done.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
        return f"killed: {failed[0][:120] if failed else 'pytest exited 1'}"
    if done.returncode == 0:
        return "survived"
    return f"pytest exited {done.returncode}:\n{done.stdout[-2000:]}"


def main() -> int:
    bad = 0
    for k, (path, old, new, tests) in enumerate(MUTANTS, 1):
        start = time.perf_counter()
        outcome = run(path, old, new, tests)
        first = old.strip().splitlines()[0]
        print(f"{k:2d} {time.perf_counter() - start:4.1f} s  {path}: {first}\n"
              f"   {outcome.splitlines()[0]}", flush=True)
        if not outcome.startswith("killed"):
            bad += 1
            if "\n" in outcome:
                print(outcome, flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
