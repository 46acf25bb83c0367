"""Golden pin of the gradient suite behind `fuselab gradcheck`: every
report of run_gradient_suite() at its default tol, h and seed, one line
each, with its label, whether it passed, its worst coordinate, and the
float.hex of its max_rel_err, analytic_at_worst and numeric_at_worst,
compared byte for byte with golden/gradsuite.txt.

A change to how the suite probes (staging, held parts, generators) must
leave every checked value's bits as they were. A change that alters a
check on purpose regenerates the file with
`PYTHONPATH=src python tests/test_gradsuite_golden.py` and states, from
the lines that command prints, which reports changed.
"""

from pathlib import Path

from fuselab.gradsuite import run_gradient_suite

GOLDEN = Path(__file__).resolve().parent / "golden" / "gradsuite.txt"
HEADER = "label\tpassed\tworst_coord\tmax_rel_err\tanalytic_at_worst\tnumeric_at_worst"


def _line(report) -> str:
    coord = (None if report.worst_coord is None
             else tuple(int(i) for i in report.worst_coord))
    return "\t".join([report.label, str(report.passed), str(coord),
                      float.hex(report.max_rel_err), float.hex(report.analytic_at_worst),
                      float.hex(report.numeric_at_worst)])


def _suite() -> str:
    return "\n".join([HEADER] + [_line(r) for r in run_gradient_suite()]) + "\n"


def test_gradient_suite_matches_golden():
    assert _suite() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    text = _suite()
    if GOLDEN.exists():
        old = GOLDEN.read_text(encoding="utf-8").splitlines()
        new = text.splitlines()
        changed = [line for line in new if line not in old]
        gone = [line for line in old if line not in new]
        print(f"{GOLDEN.name}: " + ("byte-identical" if not (changed or gone) else
                                    f"{len(gone)} line(s) replaced by {len(changed)}"))
        for line in gone:
            print(f"  - {line}")
        for line in changed:
            print(f"  + {line}")
    GOLDEN.write_text(text, encoding="utf-8")
    print(f"wrote {GOLDEN}")
