"""Every catalogued rule teaches: bad + good examples, planner links.

``papar lint --explain PAPnnn`` renders straight from :data:`CATALOG`, so
an empty ``bad``/``good`` slot is a silent documentation hole — this
module turns each hole into a failing test.  PAP080 and PAP081 carry an
extra obligation: their ``good`` examples must say that the planner skips
the stage (it is on ``WorkflowPlan.elided``), not ask for a manual edit.

Every checker declares the codes it can emit (the lint gate picks its
checkers by them); that every code a checker *yields* — in the golden
suite and every other test of this directory — is among them is enforced
by ``conftest.py``, and the last test here shows that guard firing.
"""

from repro.analysis import CATALOG, Linter, all_codes
from repro.analysis.rules import CHECKERS
from repro.config.examples import BLAST_WORKFLOW_XML
from tests.analysis.conftest import declared_only

#: codes the engine emits itself (parse failures, unused inputs, crashes)
ENGINE_CODES = {"PAP001", "PAP002", "PAP003", "PAP050", "PAP051", "PAP099"}


def test_every_code_has_a_catalog_entry():
    for code in all_codes():
        assert code in CATALOG, f"{code} missing from CATALOG"


def test_every_entry_has_summary_and_description():
    for code, spec in CATALOG.items():
        assert spec.summary.strip(), f"{code} has no summary"
        assert (spec.description or spec.summary).strip(), (
            f"{code} has no description"
        )


def test_every_entry_has_bad_and_good_examples():
    for code, spec in CATALOG.items():
        assert spec.bad.strip(), f"{code} has no bad example"
        assert spec.good.strip(), f"{code} has no good example"


def test_no_placeholder_text_survives():
    for code, spec in CATALOG.items():
        for slot in ("summary", "description", "bad", "good"):
            text = getattr(spec, slot).lower()
            assert "todo" not in text and "accepted:" not in text, (
                f"{code}.{slot} still carries placeholder text"
            )


def test_advisory_goods_say_the_planner_skips_the_stage():
    for code in ("PAP080", "PAP081"):
        assert CATALOG[code].good.startswith("the planner skips it"), code


def test_hotspot_advisory_points_at_the_planner():
    spec = CATALOG["PAP084"]
    assert "the planner skips the hotspot" in spec.good


def test_explain_dict_round_trips_examples():
    for code, spec in CATALOG.items():
        doc = spec.explain_dict()
        assert doc["code"] == code
        assert doc["bad"] == spec.bad
        assert doc["good"] == spec.good


def test_every_checker_declares_catalogued_codes():
    for func in CHECKERS:
        assert func.codes, f"{func.__name__} declares no codes"
        assert set(func.codes) <= set(CATALOG), func.__name__


def test_every_code_has_exactly_one_emitter():
    declared = [code for func in CHECKERS for code in func.codes]
    assert len(declared) == len(set(declared)), "a code declared by two checkers"
    assert set(declared) | ENGINE_CODES == set(CATALOG)
    assert not set(declared) & ENGINE_CODES


def test_a_checker_yielding_an_undeclared_code_fails():
    def sneaky(ctx):
        yield ctx.diag("PAP083", "not what this checker declares")

    sneaky.codes = ("PAP084",)
    undeclared: list = []
    CHECKERS.append(declared_only(sneaky, undeclared))
    try:
        Linter().lint(BLAST_WORKFLOW_XML)
    finally:
        CHECKERS.pop()
    assert undeclared == ["sneaky yielded PAP083, declares ('PAP084',)"]
