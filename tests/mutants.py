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
CLI = "src/knotlab/cli.py"
FAMILY = "src/knotlab/family.py"
LAURENT = "src/knotlab/laurent.py"

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
    # the A- and B-smoothings' ties swapped in the step compiler
    (DIAGRAM, "for joins in ((1, 0, 3, 2), (3, 2, 1, 0)):", "for joins in ((3, 2, 1, 0), (1, 0, 3, 2)):",
     ["tests/test_diagram.py"]),
    # no closed loop counted
    (DIAGRAM, "loops += t == s", "loops += 0", ["tests/test_diagram.py"]),
    # a smoothing's second closed loop not counted
    (DIAGRAM, "loops += t == s", "loops += t == s and not loops", ["tests/test_diagram.py"]),
    # the walks start from slots that lead back into the crossing
    (DIAGRAM, "key=lead.__getitem__, reverse=True", "key=lead.__getitem__", ["tests/test_diagram.py"]),
    # the fresh ends put one position after the first swept end
    (DIAGRAM, "back[ins:ins] = fresh", "back[ins + 1:ins + 1] = fresh", ["tests/test_diagram.py"]),
    # a curl tied to the slot before the right one
    (DIAGRAM, "~((s - 1 - k) & 3)", "~((s - k) & 3)", ["tests/test_diagram.py"]),
    # a swept end whose partner is swept taken to lead outside
    (DIAGRAM, "tie.get(ext[k], k) if k >= 0", "k if k >= 0", ["tests/test_diagram.py"]),
    # the program's last-feed bit dropped
    (DIAGRAM, "8 * k + 2 * loops[k] + end", "8 * k + 2 * loops[k]", ["tests/test_diagram.py"]),
    # the replay's mod-4 check removed
    (DIAGRAM, "if d & 3:", "if False:", ["tests/test_diagram.py"]),
    # the zero digits at the low end never trimmed
    (DIAGRAM, "if low:", "if False:", ["tests/test_diagram.py"]),
    # the repack widens only until 8 times the bound fits in a digit less 2 bits
    (DIAGRAM, "(8 * bound).bit_length() > wide // 2", "(8 * bound).bit_length() > wide - 2",
     ["tests/test_diagram.py"]),
    # the signature's orientation flipped
    (SEIFERT, "sig += 1 if (p > 0) == (prev > 0) else -1", "sig += -1 if (p > 0) == (prev > 0) else 1",
     ["tests/test_seifert.py"]),
    # the waiting run's tie left out: among crossings of one score the
    # lowest index comes first in both runs
    (DIAGRAM, "step = 1 << index_bits if fifo else 0", "step = 0", ["tests/test_diagram.py"]),
    # a tie between the two runs goes to the waiting run
    (DIAGRAM, "lowest[1:] <= (peak, total)", "lowest[1:] < (peak, total)", ["tests/test_diagram.py"]),
    # the sweep-work refusal at twice its limit
    (DIAGRAM, "if work > SWEEP_LIMIT:", "if work > 2 * SWEEP_LIMIT:", ["tests/test_diagram.py"]),
    # the step memo never emptied, however large it grows
    (DIAGRAM, "if _memo_ints + ints > SWEEP_LIMIT:", "if False:", ["tests/test_diagram.py"]),
    # a code that is not planar accepted
    (DIAGRAM, "if faces != len(crossings) + 2:", "if False:", ["tests/test_diagram.py"]),
    # Newton's divided differences divide by the wrong node gap
    (SEIFERT, "order * (2 * i + order + 1)", "order * (2 * i + order)", ["tests/test_seifert.py"]),
    # Horner's rule on the Newton form at nodes k^2, not k(k + 1)
    (SEIFERT, "node = k * (k + 1)", "node = k * k", ["tests/test_seifert.py"]),
    # (1 - t)^(2(g - j)) expanded without its signs
    (SEIFERT, "(-1) ** i * comb(e, i) * rj", "comb(e, i) * rj", ["tests/test_seifert.py"]),
    # the pivot repair swaps rows but not columns
    (SEIFERT, "row[0], row[i] = row[i], row[0]", "pass", ["tests/test_seifert.py"]),
    # the pivot repair adds a row but not its column
    (SEIFERT, "row[0] += row[j]", "pass", ["tests/test_seifert.py"]),
    # an even det S not caught
    (SEIFERT, "if not prev % 2:", "if False:", ["tests/test_seifert.py"]),
    # int_det's row swap keeps the sign
    (SEIFERT, "                    sign = -sign\n", "", ["tests/test_seifert.py"]),
    # a matrix past the size limit accepted
    (SEIFERT, "if len(rows) > MAX_SIZE:", "if False:", ["tests/test_seifert.py"]),
    # the oracle's candidate-row refusal at ten times its limit
    (SEQUIV, "if rows > ORACLE_ROWS:", "if rows > 10 * ORACLE_ROWS:", ["tests/test_sequiv.py"]),
    # the oracle's row-check refusal at twice its limit
    (SEQUIV, "if work > ORACLE_CHECKS:", "if work > 2 * ORACLE_CHECKS:", ["tests/test_sequiv.py"]),
    # the oracle's size refusal past 6x6, not 4x4
    (SEQUIV, "if n > 4:", "if n > 6:", ["tests/test_sequiv.py"]),
    # a double root named twice
    (SEQUIV, "if s:", "if True:", ["tests/test_sequiv.py"]),
    # a second row outside the box accepted
    (SEQUIV, "if (-bound <= r1[0] <= bound and -bound <= r1[1] <= bound\n            and r1[0]",
     "if (r1[0]", ["tests/test_sequiv.py"]),
    # a first-row root outside the box accepted
    (SEQUIV, "if r == 0 and -bound <= lo <= bound", "if r == 0", ["tests/test_sequiv.py"]),
    # an argument past the byte limit accepted
    (CLI, "if len(data) > MAX_ARG_BYTES:", "if False:", ["tests/test_cli.py"]),
    # a LambdaSpec's crossing limit doubled
    (FAMILY, "if crossings > MAX_CROSSINGS:", "if crossings > 2 * MAX_CROSSINGS:",
     ["tests/test_family.py"]),
    # a coefficient of 1 printed
    (LAURENT, 'head = "" if mag == 1 else str(mag)', "head = str(mag)", ["tests/test_laurent.py"]),
    # the first power printed with a caret
    (LAURENT, 'power = var if exp == 1 else f"{var}^{exp}"', 'power = f"{var}^{exp}"',
     ["tests/test_laurent.py"]),
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
