import copy
import hashlib
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import python_calls

from idfsim.verifier import (
    DrcViolation,
    FloorplanError,
    IsolationRegion,
    NetRecord,
    PinPlacement,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    UNCROSSABLE,
    check_idf1,
    check_idf2,
    check_idf3,
    check_idf4,
    check_idf5,
    check_idf6,
    fence_consequence,
    parse_floorplan,
    render_report,
    run_all_checks,
)

FIXTURES = Path(__file__).parent / "fixtures"


def load(name):
    return parse_floorplan((FIXTURES / name).read_text())


def plan_from(text):
    return parse_floorplan(text)


class TestParseFloorplan:
    def test_minimal(self):
        plan = plan_from("DEVICE 4 4\nREGION r GROUP g RECT 0 0 1 1\n")
        assert plan.cols == 4
        assert len(plan.regions) == 1

    def test_comments_and_blanks(self):
        plan = plan_from("# hi\n\nDEVICE 4 4  # trailing\n")
        assert plan.rows == 4

    def test_unknown_region_in_net(self):
        with pytest.raises(FloorplanError, match="unknown"):
            plan_from("DEVICE 4 4\nREGION a GROUP g RECT 0 0 1 1\n"
                      "NET n SRC a LOADS ghost\n")

    def test_duplicate_region_name(self):
        with pytest.raises(FloorplanError, match="duplicate"):
            plan_from("DEVICE 4 4\nREGION a GROUP g RECT 0 0 1 1\n"
                      "REGION a GROUP h RECT 2 2 3 3\n")

    def test_syntax_error_reports_line(self):
        with pytest.raises(FloorplanError) as excinfo:
            plan_from("DEVICE 4 4\nREGION broken\n")
        assert excinfo.value.lineno == 2

    def test_region_outside_grid(self):
        with pytest.raises(FloorplanError, match="outside"):
            plan_from("DEVICE 4 4\nREGION a GROUP g RECT 0 0 9 9\n")

    def test_device_must_come_first(self):
        with pytest.raises(FloorplanError):
            plan_from("TILE 0 0 CLB\nDEVICE 4 4\n")

    def test_logic_tile_inside_fence_rejected(self):
        with pytest.raises(FloorplanError, match="fence"):
            plan_from("DEVICE 4 4\nTILE 1 1 CLB\nFENCE RECT 1 1 1 1\n")

    def test_unknown_tile_kind(self):
        with pytest.raises(FloorplanError, match="kind"):
            plan_from("DEVICE 4 4\nTILE 0 0 WAT\n")

    def test_duplicate_net_name(self):
        text = ("DEVICE 20 20\n"
                "REGION a GROUP g RECT 0 0 3 3\n"
                "REGION b GROUP h RECT 8 8 11 11\n"
                "REGION c GROUP k RECT 14 14 17 17\n"
                "NET n1 SRC a LOADS b PIPS 5:5:used\n"
                "NET {} SRC a LOADS c PIPS 5:5:used\n")
        assert len(check_idf6(plan_from(text.format("n2")))) == 1
        with pytest.raises(FloorplanError, match="duplicate net") as excinfo:
            plan_from(text.format("n1"))
        assert excinfo.value.lineno == 6

    def test_duplicate_tile_site(self):
        # A second TILE at a site must not replace the first: here the
        # NULL would empty the tile and hide its IDF-5 contact.
        text = ("DEVICE 12 8\n"
                "REGION a GROUP g RECT 0 0 3 7\n"
                "REGION b GROUP h RECT 4 0 7 7\n"
                "TILE 3 2 CLB\n"
                "TILE 4 2 CLB\n")
        assert len(check_idf5(plan_from(text))) == 1
        with pytest.raises(FloorplanError, match=r"duplicate tile \(4,2\)") as excinfo:
            plan_from(text + "TILE 4 2 NULL\n")
        assert excinfo.value.lineno == 6

    def test_two_pins_on_one_package_ball(self):
        with pytest.raises(FloorplanError, match="'p1'") as excinfo:
            plan_from("DEVICE 8 8\n"
                      "PIN p1 GROUP a SITE 0 0 BANK 34 PKG 3 4\n"
                      "PIN p2 GROUP b SITE 1 1 BANK 35 PKG 3 4\n")
        assert excinfo.value.lineno == 3

    def test_pip_outside_grid(self):
        with pytest.raises(FloorplanError, match="outside grid") as excinfo:
            plan_from("DEVICE 20 20\n"
                      "REGION a GROUP g RECT 0 0 3 3\n"
                      "REGION b GROUP h RECT 8 8 11 11\n"
                      "NET n1 SRC a LOADS b PIPS 5:5:used;500:-3:used\n")
        assert excinfo.value.lineno == 4

    @pytest.mark.parametrize("pips", ["1:1:used 4:3:used", "1:1:used; 4:3:used"])
    def test_tokens_after_pips_rejected(self, pips):
        # A second PIP list token would otherwise be dropped, and with it
        # the fence PIP at (4,3).
        with pytest.raises(FloorplanError, match="unexpected token '4:3:used'") as excinfo:
            plan_from("DEVICE 12 8\n"
                      "REGION a GROUP g RECT 0 0 3 7\n"
                      "REGION b GROUP h RECT 6 0 11 7\n"
                      "FENCE RECT 4 0 5 7\n"
                      f"NET n SRC a LOADS b PIPS {pips}\n")
        assert excinfo.value.lineno == 5

    @pytest.mark.parametrize("size", ["0 0", "-3 5", "4 0"])
    def test_empty_device_rejected(self, size):
        with pytest.raises(FloorplanError, match="DEVICE needs at least one") as excinfo:
            plan_from(f"# header\nDEVICE {size}\n")
        assert excinfo.value.lineno == 2

    def test_logic_tile_after_fence_reports_its_line(self):
        text = ("DEVICE 12 8\n"
                "REGION a GROUP g RECT 0 0 3 7\n"
                "REGION b GROUP h RECT 6 0 11 7\n"
                "FENCE RECT 4 0 5 7\n"
                "TILE 4 0 NULL\n"
                "TILE 5 6 CLB\n"
                "TILE 4 1 DSP\n")
        with pytest.raises(FloorplanError,
                           match=r"non-NULL tile \(5, 6\) inside the fence") as excinfo:
            plan_from(text)
        assert excinfo.value.lineno == 6

    def test_fence_over_logic_tile_reports_its_line(self):
        text = ("DEVICE 12 8\n"
                "TILE 4 0 NULL\n"
                "TILE 5 6 CLB\n"
                "TILE 4 1 DSP\n"
                "FENCE RECT 0 0 1 7\n"
                "FENCE RECT 4 0 5 7\n"
                "FENCE RECT 4 0 4 3\n")
        with pytest.raises(FloorplanError,
                           match=r"non-NULL tile \(4, 1\) inside the fence") as excinfo:
            plan_from(text)
        assert excinfo.value.lineno == 6

    def test_clean_fixture_parses(self):
        plan = load("clean.fp")
        assert {r.name for r in plan.regions} == {"aes0", "aes1"}
        assert len(plan.fence) == 8
        assert len(plan.nets) == 2


# Every parser refusal, pinned to its text and line: the bad line is line 3,
# after a device and one region, and a valid line follows it.
_PLAN_HEAD = "DEVICE 4 4\nREGION a GROUP g RECT 0 0 1 1\n"
_PIN_SYNTAX_TEXT = "PIN <name> GROUP <g> SITE <x> <y> BANK <b> PKG <r> <c>"


@pytest.mark.parametrize("line, message", [
    ("REGION b GROUP g RECT 0 x 1 1", "bad rectangle ['0', 'x', '1', '1']"),
    ("FENCE RECT 2 0 1 1", "inverted rectangle ['2', '0', '1', '1']"),
    ("TILE 1 1", "TILE needs <x> <y> <kind>"),
    ("TILE 1 y CLB", "TILE coordinates must be integers"),
    ("TILE 4 0 CLB", "tile (4,0) outside grid"),
    ("DEVICE 4 4", "duplicate DEVICE line"),
    ("FENCE 2 2 3 3", "FENCE RECT <x0> <y0> <x1> <y1>"),
    ("FENCE RECT 2 2 3 4", "fence outside grid"),
    ("PIN p GROUP g SITE 0 0 BANK 1", _PIN_SYNTAX_TEXT),
    ("PIN p GROUP g SITE 0 0 BANK 1 PACKAGE 1 1", _PIN_SYNTAX_TEXT),
    ("PIN a GROUP g SITE 0 0 BANK 1 PKG 1 1", "duplicate pin name 'a'"),
    ("PIN p GROUP g SITE 0 0 BANK x PKG 1 1", "PIN fields must be integers"),
    ("PIN p GROUP g SITE 0 4 BANK 1 PKG 1 1", "pin site (0, 4) outside grid"),
    ("WIRE a b", "unknown keyword 'WIRE'"),
    ("NET", "NET needs a name"),
    ("NET n CLOCK LOADS a", "NET missing SRC <region>"),
    ("NET n SRC a", "NET missing LOADS <r1,r2,...>"),
    ("NET n SRC a LOADS ,,", "NET needs at least one load region"),
    ("NET n SRC a LOADS a VIA x", "unexpected token 'VIA'"),
    ("NET n SRC a LOADS a PIPS 1:1", "bad PIP entry '1:1'"),
    ("NET n SRC a LOADS a PIPS 1:1:maybe", "bad PIP entry '1:1:maybe'"),
    ("REGION a GROUP h RECT 2 2 3 3", "duplicate region name 'a'"),
    ("REGION b GROUP g RECT 0 0 9 9", "region 'b' outside grid"),
    ("NET n SRC a LOADS ghost", "net 'n' references unknown region 'ghost'"),
    ("TILE 0 0 WAT", "unknown tile kind 'WAT'"),
    ("NET n SRC a LOADS a PIPS 1:1:used;500:-3:used", "PIP (500,-3) outside grid"),
    # Two faults on one line: the first check made reports.
    ("TILE 1 y WAT", "unknown tile kind 'WAT'"),
    ("TILE 9 0 wat", "unknown tile kind 'wat'"),
    ("PIN a GROUP g SITE 0 x BANK 1 PKG 1 1", "duplicate pin name 'a'"),
    ("PIN a GRP g SITE 0 x BANK 1 PKG 1 1", _PIN_SYNTAX_TEXT),
])
def test_parse_error_text_and_line(line, message):
    with pytest.raises(FloorplanError) as excinfo:
        plan_from(f"{_PLAN_HEAD}{line}\nTILE 3 3 CLB\n")
    assert excinfo.value.lineno == 3
    assert str(excinfo.value) == f"line 3: {message}"


@pytest.mark.parametrize("text, message", [
    ("DEVICE 4\n", "line 1: DEVICE needs <cols> <rows>"),
    ("DEVICE 4 x\n", "line 1: DEVICE size must be integers"),
    ("TILE 0 0 CLB\nDEVICE 4 4\n", "line 1: DEVICE must come first"),
    ("# nothing\n", "line 1: missing DEVICE line"),
])
def test_parse_error_on_the_device_line(text, message):
    with pytest.raises(FloorplanError) as excinfo:
        plan_from(text)
    assert excinfo.value.lineno == 1
    assert str(excinfo.value) == message


# Refusals that need earlier lines, pinned to their text and line; some
# come after lines that spelled the same tokens and passed, so a converted
# token is looked up rather than checked again.
@pytest.mark.parametrize("lines, message", [
    # A non-NULL tile that repeats a site and lies on the fence.
    (["FENCE RECT 2 2 3 3", "TILE 2 2 NULL", "TILE 2 2 CLB"], "duplicate tile (2,2)"),
    (["FENCE RECT 2 2 3 3", "TILE 3 2 NULL", "TILE 3 3 CLB"],
     "non-NULL tile (3, 3) inside the fence"),
    (["TILE 1 1 CLB", "TILE 1 4 CLB"], "tile (1,4) outside grid"),
    (["TILE 1 1 CLB", "TILE 4 1 CLB"], "tile (4,1) outside grid"),
    (["TILE 1 1 CLB", "TILE 1 2 clb", "TILE 1 x CLB"], "TILE coordinates must be integers"),
    (["TILE 1 1 CLB", "TILE 1 2 BRAM", "TILE 2 1 CLB", "TILE 1 2 CLB"], "duplicate tile (1,2)"),
    (["PIN p1 GROUP a SITE 0 0 BANK 34 PKG 3 4", "PIN p2 GROUP b SITE 1 1 BANK 35 PKG 3 4"],
     "pin 'p2' is on package ball (3, 4) of pin 'p1'"),
    # A pin whose site is out of the grid and whose ball is taken.
    (["PIN p1 GROUP a SITE 0 0 BANK 34 PKG 3 4", "PIN p2 GROUP b SITE 0 4 BANK 34 PKG 3 4"],
     "pin site (0, 4) outside grid"),
    (["PIN p1 GROUP a SITE 0 0 BANK 34 PKG 3 4", "PIN p2 GROUP b SITE 0 0 BANK 34 PKG 3 y"],
     "PIN fields must be integers"),
    (["PIN p1 GROUP a SITE 0 0 BANK 34 PKG 3 4", "PIN p2 Group b SITE 0 0 BANK 34 PKG 3 5",
      "PIN p3 GROUP b SITE 0 0 BNK 34 PKG 3 6"], _PIN_SYNTAX_TEXT),
])
def test_parse_error_after_earlier_lines(lines, message):
    text = _PLAN_HEAD + "".join(f"{line}\n" for line in lines) + "TILE 0 3 CLB\n"
    lineno = 2 + len(lines)
    with pytest.raises(FloorplanError) as excinfo:
        plan_from(text)
    assert excinfo.value.lineno == lineno
    assert str(excinfo.value) == f"line {lineno}: {message}"


class TestIdf1:
    def test_all_seven_fields(self):
        plan = load("clean.fp")
        header = check_idf1(plan, {"tool_version": "1.0", "date": "2026-01-01"})
        assert len(header) == 7
        keys = [line.split(":")[0] for line in header]
        assert keys == ["tool_version", "date", "design", "directory",
                        "user", "platform", "host"]

    def test_deterministic_under_pinned_env(self):
        plan = load("clean.fp")
        env = {k: "x" for k in ("tool_version", "date", "design", "directory",
                                "user", "platform", "host")}
        assert check_idf1(plan, env) == check_idf1(plan, env)

    def test_missing_fields_marked_unknown(self):
        header = check_idf1(load("clean.fp"), {})
        assert all(line.endswith("unknown") for line in header)


class TestIdf2:
    def test_two_groups_one_bank(self):
        violations = check_idf2(load("idf2_bank_sharing.fp"))
        assert len(violations) == 1
        assert violations[0].check == "IDF-2"
        assert violations[0].severity == SEVERITY_WARNING

    def test_same_group_ok(self):
        plan = plan_from("DEVICE 8 8\nREGION a GROUP g RECT 0 0 1 1\n"
                         "PIN p1 GROUP g SITE 0 0 BANK 35 PKG 1 1\n"
                         "PIN p2 GROUP g SITE 1 1 BANK 35 PKG 5 5\n")
        assert check_idf2(plan) == []

    def test_three_groups_single_violation(self):
        plan = plan_from("DEVICE 8 8\n"
                         "PIN p1 GROUP a SITE 0 0 BANK 35 PKG 1 1\n"
                         "PIN p2 GROUP b SITE 1 1 BANK 35 PKG 4 4\n"
                         "PIN p3 GROUP c SITE 2 2 BANK 35 PKG 7 7\n")
        violations = check_idf2(plan)
        assert len(violations) == 1
        assert violations[0].subjects == ("a", "b", "c")

    def test_strict_flag_promotes_severity(self):
        violations = check_idf2(load("idf2_bank_sharing.fp"), strict=True)
        assert violations[0].severity == SEVERITY_ERROR


class TestIdf3:
    def test_diagonal_counts(self):
        violations = check_idf3(load("idf3_package_adjacent.fp"))
        assert len(violations) == 1
        assert violations[0].check == "IDF-3"

    def test_same_group_ok(self):
        plan = plan_from("DEVICE 8 8\n"
                         "PIN p1 GROUP g SITE 0 0 BANK 34 PKG 1 1\n"
                         "PIN p2 GROUP g SITE 1 1 BANK 35 PKG 2 2\n")
        assert check_idf3(plan) == []

    def test_two_apart_ok(self):
        plan = plan_from("DEVICE 8 8\n"
                         "PIN p1 GROUP a SITE 0 0 BANK 34 PKG 1 1\n"
                         "PIN p2 GROUP b SITE 1 1 BANK 35 PKG 1 3\n")
        assert check_idf3(plan) == []


class TestIdf4:
    def test_edge_adjacent(self):
        violations = check_idf4(load("idf4_region_contact.fp"))
        assert len(violations) == 1
        assert "touches" in violations[0].message

    def test_one_tile_fence_is_enough(self):
        plan = plan_from("DEVICE 12 8\nREGION a GROUP g RECT 0 0 3 3\n"
                         "REGION b GROUP h RECT 5 0 8 3\n")
        assert check_idf4(plan) == []

    def test_overlap(self):
        plan = plan_from("DEVICE 12 8\nREGION a GROUP g RECT 0 0 4 4\n"
                         "REGION b GROUP h RECT 3 3 6 6\n")
        violations = check_idf4(plan)
        assert len(violations) == 1
        assert "overlaps" in violations[0].message

    def test_diagonal_contact_counts(self):
        plan = plan_from("DEVICE 12 8\nREGION a GROUP g RECT 0 0 2 2\n"
                         "REGION b GROUP h RECT 3 3 5 5\n")
        assert len(check_idf4(plan)) == 1

    def test_same_group_adjacent_ok(self):
        plan = plan_from("DEVICE 12 8\nREGION a GROUP g RECT 0 0 2 2\n"
                         "REGION b GROUP g RECT 3 0 5 2\n")
        assert check_idf4(plan) == []


class TestIdf5:
    def test_adjacent_occupied_tiles(self):
        violations = check_idf5(load("idf5_tile_contact.fp"))
        assert len(violations) == 1
        assert violations[0].check == "IDF-5"

    def test_diagonal_only_is_ok(self):
        plan = plan_from("DEVICE 12 8\n"
                         "REGION a GROUP g RECT 0 0 3 3\n"
                         "REGION b GROUP h RECT 4 4 7 7\n"
                         "TILE 3 3 CLB\nTILE 4 4 CLB\n")
        assert check_idf5(plan) == []

    def test_fence_tile_between_is_ok(self):
        plan = plan_from("DEVICE 12 8\n"
                         "REGION a GROUP g RECT 0 0 3 7\n"
                         "REGION b GROUP h RECT 5 0 8 7\n"
                         "FENCE RECT 4 0 4 7\n"
                         "TILE 3 2 CLB\nTILE 5 2 CLB\n")
        assert check_idf5(plan) == []

    def test_tile_with_two_contacts_reports_right_first(self):
        # (1,1) belongs to a, which comes first; its right and upper
        # neighbours belong to b.
        plan = plan_from("DEVICE 8 8\n"
                         "REGION a GROUP g RECT 0 0 1 1\n"
                         "REGION b GROUP h RECT 0 0 7 7\n"
                         "TILE 1 2 CLB\nTILE 2 1 CLB\nTILE 1 1 CLB\n")
        violations = check_idf5(plan)
        assert [v.subjects for v in violations] == [("(1,1)", "(2,1)"),
                                                    ("(1,1)", "(1,2)")]
        assert violations == reference_idf5(plan)

    def test_diagonal_tiles_across_the_top_row_are_ok(self):
        # (0,1) is in the top row and (1,0) is in the bottom row of the next
        # column: the tiles are diagonal, though packed with a stride of
        # `rows` their keys would be consecutive.
        plan = plan_from("DEVICE 3 2\n"
                         "REGION a GROUP g RECT 0 0 0 1\n"
                         "REGION b GROUP h RECT 1 0 1 1\n"
                         "TILE 1 0 CLB\nTILE 0 1 CLB\n")
        assert check_idf5(plan) == []
        assert [divmod(key, plan.rows + 1) for key in sorted(plan.tiles)] == [
            (0, 1), (1, 0)]

    def test_null_tiles_not_occupied(self):
        plan = plan_from("DEVICE 12 8\n"
                         "REGION a GROUP g RECT 0 0 3 7\n"
                         "REGION b GROUP h RECT 4 0 7 7\n"
                         "TILE 3 2 NULL\nTILE 4 2 CLB\n")
        assert check_idf5(plan) == []


class TestIdf6:
    def test_multi_region_loads(self):
        violations = check_idf6(load("idf6a_multi_load.fp"))
        assert len(violations) == 1
        assert "loads in 2" in violations[0].message

    def test_used_fence_pip(self):
        violations = check_idf6(load("idf6b_fence_pip.fp"))
        assert len(violations) == 1
        assert violations[0].subjects == ("leak",)

    def test_clock_with_unused_fence_pip_ok(self):
        assert check_idf6(load("clean.fp")) == []

    def test_clock_with_used_fence_pip_violates(self):
        plan = plan_from("DEVICE 12 8\n"
                         "REGION a GROUP g RECT 0 0 3 7\n"
                         "REGION b GROUP h RECT 6 0 11 7\n"
                         "FENCE RECT 4 0 5 7\n"
                         "NET clk CLOCK SRC a LOADS b PIPS 4:1:used\n")
        assert len(check_idf6(plan)) == 1

    def test_nonclock_unused_fence_pip_violates(self):
        plan = plan_from("DEVICE 12 8\n"
                         "REGION a GROUP g RECT 0 0 3 7\n"
                         "REGION b GROUP h RECT 6 0 11 7\n"
                         "FENCE RECT 4 0 5 7\n"
                         "NET data SRC a LOADS b PIPS 4:1:unused\n")
        assert len(check_idf6(plan)) == 1

    def test_shared_tile_different_endpoints(self):
        violations = check_idf6(load("idf6c_shared_tile.fp"))
        assert len(violations) == 1
        assert violations[0].subjects == ("n1", "n2")

    def test_shared_tile_same_endpoints_ok(self):
        plan = plan_from("DEVICE 16 8\n"
                         "REGION a GROUP g RECT 0 0 2 7\n"
                         "REGION b GROUP h RECT 5 0 7 7\n"
                         "NET n1 SRC a LOADS b PIPS 4:4:used\n"
                         "NET n2 SRC a LOADS b PIPS 4:4:used\n")
        assert check_idf6(plan) == []

    def test_intra_region_net_ignored(self):
        plan = plan_from("DEVICE 12 8\n"
                         "REGION a GROUP g RECT 0 0 3 7\n"
                         "FENCE RECT 4 0 5 7\n"
                         "NET local SRC a LOADS a PIPS 4:1:used\n")
        assert check_idf6(plan) == []


EXPECTED_FIXTURE_CHECKS = {
    "clean.fp": set(),
    "idf2_bank_sharing.fp": {"IDF-2"},
    "idf3_package_adjacent.fp": {"IDF-3"},
    "idf4_region_contact.fp": {"IDF-4"},
    # Tile contact implies region contact: IDF-5 cannot fire without IDF-4
    # under rectangle-based tile ownership.
    "idf5_tile_contact.fp": {"IDF-4", "IDF-5"},
    "idf6a_multi_load.fp": {"IDF-6"},
    "idf6b_fence_pip.fp": {"IDF-6"},
    "idf6c_shared_tile.fp": {"IDF-6"},
}


@pytest.mark.parametrize("name,expected", sorted(EXPECTED_FIXTURE_CHECKS.items()))
def test_fixture_violation_sets(name, expected):
    plan = load(name)
    _, violations = run_all_checks(plan)
    assert {v.check for v in violations} == expected


def test_checks_are_pure():
    plan = load("clean.fp")
    before = copy.deepcopy(plan)
    run_all_checks(plan)
    assert plan == before


def test_report_line_format():
    v = DrcViolation("IDF-4", SEVERITY_ERROR, ("a", "b"), "touching")
    assert v.line() == "IDF-4|error|a,b|touching"
    report = render_report(["tool_version: x"], [v])
    assert report.splitlines()[0].startswith("IDF-1|info|provenance|")


class TestFenceConsequence:
    # the nine reference rows (four horizontal, five vertical), then the
    # other widths up to 10, so every width from 1 to 10 is pinned both ways
    @pytest.mark.parametrize("width,orient,expected", [
        (1, "horizontal", {1}),
        (2, "horizontal", {1, 2}),
        (4, "horizontal", {1, 2, 4}),
        (6, "horizontal", UNCROSSABLE),
        (1, "vertical", {1}),
        (2, "vertical", {1, 2}),
        (4, "vertical", {1, 2, 4}),
        (6, "vertical", {1, 2, 4, 6}),
        (9, "vertical", UNCROSSABLE),
        (3, "horizontal", {1, 2}),
        (5, "horizontal", {1, 2, 4}),
        (7, "horizontal", UNCROSSABLE),
        (8, "horizontal", UNCROSSABLE),
        (9, "horizontal", UNCROSSABLE),
        (10, "horizontal", UNCROSSABLE),
        (3, "vertical", {1, 2}),
        (5, "vertical", {1, 2, 4}),
        (7, "vertical", {1, 2, 4, 6}),
        (8, "vertical", {1, 2, 4, 6}),
        (10, "vertical", UNCROSSABLE),
    ])
    def test_reference_rows(self, width, orient, expected):
        result = fence_consequence(width, orient)
        if expected is UNCROSSABLE:
            assert result is UNCROSSABLE
        else:
            assert result == frozenset(expected)

    def test_band_interiors(self):
        assert fence_consequence(3, "h") == frozenset({1, 2})
        assert fence_consequence(5, "h") == frozenset({1, 2, 4})
        assert fence_consequence(7, "v") == frozenset({1, 2, 4, 6})
        assert fence_consequence(8, "v") == frozenset({1, 2, 4, 6})
        assert fence_consequence(100, "h") is UNCROSSABLE

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            fence_consequence(0, "h")

    def test_empty_orientation_rejected(self):
        with pytest.raises(ValueError, match="orientation"):
            fence_consequence(2, "")

    def test_monotone_until_uncrossable(self):
        for orient, limit in (("h", 6), ("v", 9)):
            previous = set()
            for width in range(1, limit):
                spans = fence_consequence(width, orient)
                assert previous <= spans
                previous = spans


# -- differential check against the all-pairs scans --------------------------


def reference_idf3(plan):
    """IDF-3 as an all-pairs scan of the pins."""
    violations = []
    pins = plan.pins
    for i in range(len(pins)):
        for j in range(i + 1, len(pins)):
            a, b = pins[i], pins[j]
            if a.group == b.group:
                continue
            dr = abs(a.package[0] - b.package[0])
            dc = abs(a.package[1] - b.package[1])
            if max(dr, dc) == 1:
                violations.append(DrcViolation(
                    "IDF-3", SEVERITY_ERROR, (a.name, b.name),
                    f"package pins {a.package} and {b.package} of groups "
                    f"{a.group}/{b.group} are adjacent"))
    return violations


def reference_idf5(plan):
    """IDF-5 with tile ownership found by testing every tile against every
    region, first region wins."""
    owned = {}
    for key, kind in plan.tiles.items():
        if kind == "NULL":
            continue
        x, y = divmod(key, plan.rows + 1)
        for region in plan.regions:
            x0, y0, x1, y1 = region.rect
            if x0 <= x <= x1 and y0 <= y <= y1:
                owned[(x, y)] = region.group
                break
    violations = []
    for (x, y) in sorted(owned):
        group = owned[(x, y)]
        for nx, ny in ((x + 1, y), (x, y + 1)):
            other = owned.get((nx, ny))
            if other is not None and other != group:
                violations.append(DrcViolation(
                    "IDF-5", SEVERITY_ERROR,
                    (f"({x},{y})", f"({nx},{ny})"),
                    f"occupied tiles ({x},{y})[{group}] and ({nx},{ny})"
                    f"[{other}] are adjacent"))
    return violations


def _reference_gap(a, b):
    """Chebyshev distance between the closest tiles of two rectangles."""
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    return max(bx0 - ax1, ax0 - bx1, by0 - ay1, ay0 - by1, 0)


def reference_idf4(plan):
    """IDF-4 as an all-pairs scan of the regions."""
    violations = []
    regions = plan.regions
    for i in range(len(regions)):
        for j in range(i + 1, len(regions)):
            a, b = regions[i], regions[j]
            if a.group == b.group:
                continue
            gap = _reference_gap(a.rect, b.rect)
            if gap == 0:
                kind = "overlaps"
            elif gap == 1:
                kind = "touches"
            else:
                continue
            violations.append(DrcViolation(
                "IDF-4", SEVERITY_ERROR, (a.name, b.name),
                f"region {a.name} ({a.group}) {kind} region {b.name} ({b.group})"))
    return violations


def reference_idf6(plan):
    """IDF-6 with every PIP tile sorted, shared or not."""
    violations = []
    inter = [n for n in plan.nets if _is_inter_region(n)]

    for net in inter:
        load_regions = sorted(set(net.loads))
        if len(load_regions) > 1:
            violations.append(DrcViolation(
                "IDF-6", SEVERITY_ERROR, (net.name,),
                f"net {net.name} has loads in {len(load_regions)} isolated "
                f"regions ({','.join(load_regions)})"))

    for net in inter:
        fence_pips = [(x, y, used) for (x, y, used) in net.pips
                      if x * (plan.rows + 1) + y in plan.fence]
        if not fence_pips:
            continue
        if net.is_clock and not any(used for _, _, used in fence_pips):
            continue  # clock nets may leave unused PIPs in the fence
        violations.append(DrcViolation(
            "IDF-6", SEVERITY_ERROR, (net.name,),
            f"net {net.name} has PIPs in the fence"))

    tiles = {}
    for net in inter:
        for (x, y, _used) in net.pips:
            tiles.setdefault((x, y), set()).add(net.name)
    nets_by_name = {n.name: n for n in inter}
    for (x, y) in sorted(tiles):
        names = sorted(tiles[(x, y)])
        if len(names) < 2:
            continue
        endpoints = {(nets_by_name[n].source, tuple(sorted(nets_by_name[n].loads)))
                     for n in names}
        if len(endpoints) > 1:
            violations.append(DrcViolation(
                "IDF-6", SEVERITY_ERROR, tuple(names),
                f"tile ({x},{y}) hosts inter-region nets without a common "
                f"source and load"))
    return violations


def _is_inter_region(net):
    return any(load != net.source for load in net.loads)


GROUP_NAMES = ("red", "blue", "green")
PKG_SIDE = 5  # small, so that most pins sit on an edge or a corner


@st.composite
def small_floorplans(draw):
    cols = draw(st.integers(2, 10))
    rows = draw(st.integers(2, 10))
    lines = [f"DEVICE {cols} {rows}"]
    regions = []
    for i in range(draw(st.integers(0, 6))):
        x0, x1 = sorted(draw(st.integers(0, cols - 1)) for _ in range(2))
        y0, y1 = sorted(draw(st.integers(0, rows - 1)) for _ in range(2))
        group = draw(st.sampled_from(GROUP_NAMES))
        lines.append(f"REGION r{i} GROUP {group} RECT {x0} {y0} {x1} {y1}")
        regions.append(f"r{i}")
    fence = set()
    for _ in range(draw(st.integers(0, 2))):
        x0, x1 = sorted(draw(st.integers(0, cols - 1)) for _ in range(2))
        y0, y1 = sorted(draw(st.integers(0, rows - 1)) for _ in range(2))
        lines.append(f"FENCE RECT {x0} {y0} {x1} {y1}")
        fence.update((x, y) for x in range(x0, x1 + 1) for y in range(y0, y1 + 1))
    cells = st.tuples(st.integers(0, cols - 1), st.integers(0, rows - 1))
    # Each cell gets a tile of some kind or none, declared in any order;
    # fence cells carry no logic.
    kinds = st.sampled_from(("CLB", "INT", "BRAM", "DSP", "IOB", "NULL", None))
    tiles = [f"TILE {x} {y} {'NULL' if (x, y) in fence else kind}"
             for x in range(cols) for y in range(rows)
             if (kind := draw(kinds)) is not None]
    lines.extend(draw(st.permutations(tiles)))
    balls = draw(st.lists(st.tuples(st.integers(0, PKG_SIDE - 1),
                                    st.integers(0, PKG_SIDE - 1)),
                          unique=True, max_size=PKG_SIDE * PKG_SIDE))
    for i, (prow, pcol) in enumerate(balls):
        group = draw(st.sampled_from(GROUP_NAMES))
        lines.append(f"PIN p{i} GROUP {group} SITE 0 0 BANK 0 PKG {prow} {pcol}")
    if regions:
        # A few PIP tiles only, so that nets share them often; some are
        # fence cells when there is a fence.
        pip_cells = st.sampled_from(sorted(draw(st.sets(cells, min_size=1, max_size=4))
                                           | fence))
        for i in range(draw(st.integers(0, 6))):
            clock = " CLOCK" if draw(st.booleans()) else ""
            source = draw(st.sampled_from(regions))
            loads = draw(st.lists(st.sampled_from(regions), min_size=1, max_size=3))
            pips = draw(st.lists(st.tuples(pip_cells, st.booleans()), max_size=3))
            pip_list = ";".join(f"{x}:{y}:{'used' if used else 'unused'}"
                                for (x, y), used in pips)
            lines.append(f"NET n{i}{clock} SRC {source} LOADS {','.join(loads)}"
                         + (f" PIPS {pip_list}" if pips else ""))
    return "\n".join(lines) + "\n"


@settings(derandomize=True, max_examples=300, deadline=None)
@given(small_floorplans())
def test_idf3_and_idf5_match_the_scans(text):
    plan = parse_floorplan(text)
    assert check_idf3(plan) == reference_idf3(plan)
    assert check_idf5(plan) == reference_idf5(plan)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(small_floorplans())
def test_idf4_and_idf6_match_the_scans(text):
    plan = parse_floorplan(text)
    assert check_idf4(plan) == reference_idf4(plan)
    assert check_idf6(plan) == reference_idf6(plan)


# The words small_floorplans writes that the parser reads in any case.
_CASELESS = frozenset(("DEVICE", "TILE", "REGION", "GROUP", "RECT", "FENCE", "PIN",
                       "SITE", "BANK", "PKG", "NET", "CLOCK", "SRC", "LOADS", "PIPS",
                       "CLB", "INT", "BRAM", "DSP", "IOB", "NULL"))


def respell(text, rnd):
    """`text` of small_floorplans with each keyword, tile kind and PIP state
    in random case, leading zeros or a `+` on integers, spaces and tabs
    between tokens, and some lines ending in a `#` comment."""
    def case(word):
        return "".join(rnd.choice((c.lower(), c.upper())) for c in word)

    def number(token):
        return rnd.choice(("", "0", "00", "+", "+0")) + token

    out = []
    for line in text.splitlines():
        tokens = []
        for token in line.split():
            if token.upper() in _CASELESS:
                token = case(token)
            elif token.isdigit():
                token = number(token)
            elif ":" in token:  # a PIP list
                entries = (entry.split(":") for entry in token.split(";"))
                token = ";".join(f"{number(x)}:{number(y)}:{case(state)}"
                                 for x, y, state in entries)
            tokens.append(token + rnd.choice((" ", "\t", " \t", "\t\t ")))
        comment = rnd.choice(("", "", "# note", "\t#", "#TILE 0 0 WAT"))
        out.append(rnd.choice(("", "\t")) + "".join(tokens) + comment)
    return "\n".join(out) + "\n"


@settings(derandomize=True, max_examples=300, deadline=None)
@given(small_floorplans(), st.randoms(use_true_random=False))
def test_respelling_changes_nothing(text, rnd):
    respelled = respell(text, rnd)
    assert parse_floorplan(respelled) == parse_floorplan(text)


def test_generated_floorplans_match_the_scans(perfbench_gen):
    # The drc_large benchmark inputs of seeds 1-20.
    for seed in range(1, 21):
        plan = parse_floorplan(perfbench_gen.floorplan(seed)[0])
        _header, violations = run_all_checks(plan)
        assert violations == (check_idf2(plan) + reference_idf3(plan)
                              + reference_idf4(plan) + reference_idf5(plan)
                              + reference_idf6(plan)), seed


def test_large_floorplan_report_pinned(perfbench_gen):
    # The drc_large benchmark input for seed 7: 100 regions, 700 pins,
    # 550 nets and about 4k tiles.
    text, _counts = perfbench_gen.floorplan(7)
    env = {k: "pinned" for k in ("tool_version", "date", "design", "directory",
                                 "user", "platform", "host")}
    header, violations = run_all_checks(parse_floorplan(text), env)
    report = render_report(header, violations)
    assert hashlib.sha256(report.encode()).hexdigest() == (
        "ef64fa00c21f30a942278842fc4b9d95929962387b044b2382ad3276456e136a")


# Python-level calls of one parse_floorplan plus run_all_checks of the
# seed-7 floorplan, counted on Python 3.11.
DRC_CALLS = 2186


def test_drc_work_is_pinned(perfbench_gen):
    # Every NET line is parsed once, and the whole operation makes no
    # more Python calls than DRC_CALLS: an added per-record or per-pair
    # call fails.
    text, _counts = perfbench_gen.floorplan(7)
    net_lines = sum(line.startswith("NET ") for line in text.splitlines())
    plan, calls = python_calls(parse_floorplan, text)
    (_header, violations), check_calls = python_calls(run_all_checks, plan)
    calls += check_calls
    assert len(plan.nets) == net_lines == 550
    assert len(violations) == 96
    assert calls["_parse_net"] == net_lines
    assert sum(calls.values()) <= DRC_CALLS


def test_tile_and_pin_lines_make_no_python_call(perfbench_gen):
    # The seed-7 floorplan's 4,109 TILE and 700 PIN lines add no call to
    # the parse: a per-line or per-token helper fails.
    text, _counts = perfbench_gen.floorplan(7)
    lines = text.splitlines(keepends=True)
    bare = "".join(line for line in lines if not line.startswith(("TILE ", "PIN ")))
    assert len(lines) - len(bare.splitlines()) == 4109 + 700
    assert python_calls(parse_floorplan, text)[1] == python_calls(parse_floorplan, bare)[1]


@pytest.mark.parametrize("record,fields", [
    (IsolationRegion("r0", "red", (0, 0, 1, 1)), ("name", "group", "rect")),
    (PinPlacement("p0", "red", (0, 0), 3, (1, 2)),
     ("name", "group", "site", "bank", "package")),
    (NetRecord("n0", False, "r0", ("r1",), ((0, 0, True),)),
     ("name", "is_clock", "source", "loads", "pips")),
    (DrcViolation("IDF-3", SEVERITY_ERROR, ("a", "b"), "adjacent"),
     ("check", "severity", "subjects", "message")),
])
def test_record_contract(record, fields):
    # Records are immutable values: fields in this order, no attribute
    # assignment, equal and hashed by their fields (also equal to a plain
    # tuple of them).
    assert type(record)._fields == fields
    with pytest.raises(AttributeError):
        setattr(record, fields[0], "other")
    with pytest.raises(AttributeError):
        record.extra = 1
    twin = type(record)(*record)
    assert twin == record
    assert hash(twin) == hash(record)
    assert record == tuple(record)
    assert record != type(record)(*record[:-1], "other")
