"""The seeded defects of ``mutants.py`` still seed the code: a rewritten
line fails here rather than leaving a defect that no longer applies."""

from mutants import DEFECTS, ROOT, RULES


def test_each_defect_edits_one_place_and_every_rule_is_seeded():
    for defect in DEFECTS:
        text = (ROOT / defect.file).read_text(encoding="utf-8")
        assert text.count(defect.old) == 1 and defect.old != defect.new, defect
    assert sorted({defect.rule for defect in DEFECTS}) == sorted(RULES)
    assert len(DEFECTS) >= 62
