"""Floorplan model and isolation design-rule checks.

The floorplan file is line-oriented text (`#` comments):

    DEVICE <cols> <rows>
    TILE <x> <y> <kind>
    REGION <name> GROUP <g> RECT <x0> <y0> <x1> <y1>
    FENCE RECT <x0> <y0> <x1> <y1>
    PIN <name> GROUP <g> SITE <x> <y> BANK <b> PKG <prow> <pcol>
    NET <name> [CLOCK] SRC <region> LOADS <r1,r2,...> PIPS <x:y:used|unused;...>

The parser rejects, with the offending line's number, among others: a
DEVICE with fewer than one column or row; a second TILE at a site; a
non-NULL tile on a fence cell (reported at the TILE line, or at the
FENCE line when the tile came first); a second pin on a package ball;
and any token after a NET's PIPS list, which is one token with no spaces.
A parse costs one `split()` per line.  It converts each distinct keyword,
tile kind, TILE coordinate and PIN integer once per call, into memos local
to the call that keep only tokens whose checks passed, so a repeated token
is one dict lookup and a TILE or PIN line makes no Python call.

Checks (one per rule class), with their cost for P pins, R regions, T
declared tiles, and N nets with K PIPs in all:

    IDF-1  provenance header (never a violation)                  O(1)
    IDF-2  pins of multiple isolation groups sharing an IOB bank  O(P log P)
    IDF-3  package-adjacent pins (8 compass directions) of        O(P + V log V)
           different groups
    IDF-4  isolation regions overlapping or in 8-way contact      O(R log R + E)
    IDF-5  4-way adjacent occupied tiles of different groups      O(G + A + T + V log V)
    IDF-6  routing: multi-region loads / fence PIPs / shared-tile O(N + K + S log S)
           nets

IDF-3 looks up half of each pin's eight neighbours by package ball, so
it meets each adjacent pair once; the parser allows one pin per ball.
IDF-4 sweeps the regions in order of their left edge, so it pays for the
E pairs whose x-spans are within one tile of each other, not for all
pairs.  IDF-3, IDF-5 and IDF-6 sort only what they report: the V
violating pin or tile pairs, and the S tiles that carry PIPs of two or
more inter-region nets.  IDF-5 paints region ownership over the
G = cols x (rows + 1) tile keys, one slice per rectangle column, so it
pays for the A cells of all region rectangles, not for rectangles times
tiles, and reads each tile's owner from a list; the parser already pays
for the fence's area.

Tiles default to NULL (vacant); only declared non-NULL tiles inside a
region rectangle count as occupied logic, owned by the first region in
file order whose rectangle holds them.

A tile is one integer key, `x * (rows + 1) + y`, from the parser to the
checks: `Floorplan.tiles` maps keys to kinds and `Floorplan.fence` is a
set of keys.  The spare row makes `key + 1` of a top-row tile name no
tile, and keys sort in (x, y) order.  The packing is inlined in the
parser's TILE and FENCE branches, `check_idf5` and `check_idf6`; reports
and errors decode keys with `divmod(key, rows + 1)`.
Region, pin, net and violation records are named tuples and keep their
(x, y) coordinates.  All checks are pure: they never modify the floorplan.
"""

from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

TILE_KINDS = frozenset(("CLB", "INT", "BRAM", "DSP", "IOB", "NULL"))

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

# Spans removed from the routing resources able to cross a fence, by
# orientation: each row gives the widest fence of a step and its spans.  A
# fence wider than the last row is UNCROSSABLE.
_CONSEQUENCES = {
    "h": ((1, frozenset({1})), (3, frozenset({1, 2})), (5, frozenset({1, 2, 4}))),
    "v": ((1, frozenset({1})), (3, frozenset({1, 2})), (5, frozenset({1, 2, 4})),
          (8, frozenset({1, 2, 4, 6}))),
}


class _Uncrossable:
    def __repr__(self):
        return "Uncrossable"


UNCROSSABLE = _Uncrossable()


class FloorplanError(ValueError):
    def __init__(self, lineno, message):
        self.lineno, self.message = lineno, message
        super().__init__(f"line {lineno}: {message}")


class IsolationRegion(NamedTuple):
    name: str
    group: str
    rect: tuple  # inclusive (x0, y0, x1, y1)


class PinPlacement(NamedTuple):
    name: str
    group: str
    site: tuple
    bank: int
    package: tuple  # (prow, pcol)


class NetRecord(NamedTuple):
    name: str
    is_clock: bool
    source: str
    loads: tuple
    pips: tuple  # ((x, y, used), ...)


@dataclass
class Floorplan:
    cols: int
    rows: int
    tiles: dict = field(default_factory=dict)   # tile key -> kind
    regions: list = field(default_factory=list)
    fence: set = field(default_factory=set)     # tile keys
    pins: list = field(default_factory=list)
    nets: list = field(default_factory=list)


class DrcViolation(NamedTuple):
    check: str
    severity: str
    subjects: tuple
    message: str

    def line(self):
        return f"{self.check}|{self.severity}|{','.join(self.subjects)}|{self.message}"


# Each built from a tuple of the fields, without NamedTuple's Python-level
# __new__.
_region = partial(tuple.__new__, IsolationRegion)
_pin = partial(tuple.__new__, PinPlacement)
_net = partial(tuple.__new__, NetRecord)
_violation = partial(tuple.__new__, DrcViolation)


def _parse_rect(tokens, lineno):
    try:
        x0, y0, x1, y1 = map(int, tokens)
    except ValueError:
        raise FloorplanError(lineno, f"bad rectangle {tokens}") from None
    if x0 > x1 or y0 > y1:
        raise FloorplanError(lineno, f"inverted rectangle {tokens}")
    return (x0, y0, x1, y1)


def _rect_in_grid(rect, plan):
    x0, y0, x1, y1 = rect
    return 0 <= x0 and 0 <= y0 and x1 < plan.cols and y1 < plan.rows


_PIN_SYNTAX = "PIN <name> GROUP <g> SITE <x> <y> BANK <b> PKG <r> <c>"


def parse_floorplan(text):
    """Parse and structurally validate a floorplan description."""
    plan = cols = rows = stride = tiles = fence = None
    pending = []  # (lineno, tokens) gathered before full validation
    names = set()
    balls = {}  # package ball -> name of the pin on it
    keywords, kinds, xkeys, ys, ints, spellings = {}, {}, {}, {}, {}, set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        tokens = raw.split()
        if not tokens:
            continue
        try:
            kw = keywords[tokens[0]]
        except KeyError:
            kw = keywords[tokens[0]] = tokens[0].upper()
        if kw == "TILE" and plan is not None:
            if len(tokens) != 4:
                raise FloorplanError(lineno, "TILE needs <x> <y> <kind>")
            _, tx, ty, tkind = tokens
            try:
                kind, key = kinds[tkind], xkeys[tx] + ys[ty]
            except KeyError:
                kind = tkind.upper()
                if kind not in TILE_KINDS:
                    raise FloorplanError(lineno, f"unknown tile kind {tkind!r}") from None
                try:
                    x, y = int(tx), int(ty)
                except ValueError:
                    raise FloorplanError(lineno, "TILE coordinates must be integers") from None
                if not (0 <= x < cols and 0 <= y < rows):
                    raise FloorplanError(lineno, f"tile ({x},{y}) outside grid") from None
                kinds[tkind], xkeys[tx], ys[ty] = kind, x * stride, y
                key = x * stride + y
            if key in tiles:
                raise FloorplanError(lineno, "duplicate tile (%d,%d)" % divmod(key, stride))
            # Fence tiles carry no placed logic.
            if kind != "NULL" and key in fence:
                xy = divmod(key, stride)
                raise FloorplanError(lineno, f"non-NULL tile {xy} inside the fence")
            tiles[key] = kind
        elif kw == "DEVICE":
            if plan is not None:
                raise FloorplanError(lineno, "duplicate DEVICE line")
            if len(tokens) != 3:
                raise FloorplanError(lineno, "DEVICE needs <cols> <rows>")
            try:
                cols, rows = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise FloorplanError(lineno, "DEVICE size must be integers") from None
            if cols < 1 or rows < 1:
                raise FloorplanError(lineno, "DEVICE needs at least one column and one row")
            plan = Floorplan(cols=cols, rows=rows)
            stride, tiles, fence = rows + 1, plan.tiles, plan.fence
        elif plan is None:
            raise FloorplanError(lineno, "DEVICE must come first")
        elif kw == "REGION":
            if len(tokens) != 9 or tokens[2].upper() != "GROUP" or tokens[4].upper() != "RECT":
                raise FloorplanError(lineno, "REGION <name> GROUP <g> RECT <x0> <y0> <x1> <y1>")
            name = tokens[1]
            if name in names:
                raise FloorplanError(lineno, f"duplicate region name {name!r}")
            names.add(name)
            rect = _parse_rect(tokens[5:9], lineno)
            if not _rect_in_grid(rect, plan):
                raise FloorplanError(lineno, f"region {name!r} outside grid")
            plan.regions.append(_region((name, tokens[3], rect)))
        elif kw == "FENCE":
            if len(tokens) != 6 or tokens[1].upper() != "RECT":
                raise FloorplanError(lineno, "FENCE RECT <x0> <y0> <x1> <y1>")
            rect = _parse_rect(tokens[2:6], lineno)
            if not _rect_in_grid(rect, plan):
                raise FloorplanError(lineno, "fence outside grid")
            x0, y0, x1, y1 = rect
            for x in range(x0, x1 + 1):
                column = range(x * stride + y0, x * stride + y1 + 1)
                for key in column:
                    if tiles.get(key, "NULL") != "NULL":
                        xy = divmod(key, stride)
                        raise FloorplanError(lineno, f"non-NULL tile {xy} inside the fence")
                fence.update(column)
        elif kw == "PIN":
            if len(tokens) != 12:
                raise FloorplanError(lineno, _PIN_SYNTAX)
            _, name, kgroup, group, ksite, tx, ty, kbank, tb, kpkg, trow, tcol = tokens
            if (kgroup, ksite, kbank, kpkg) not in spellings:
                if (kgroup.upper() != "GROUP" or ksite.upper() != "SITE"
                        or kbank.upper() != "BANK" or kpkg.upper() != "PKG"):
                    raise FloorplanError(lineno, _PIN_SYNTAX)
                spellings.add((kgroup, ksite, kbank, kpkg))
            if name in names:
                raise FloorplanError(lineno, f"duplicate pin name {name!r}")
            names.add(name)
            try:
                site, bank, package = (ints[tx], ints[ty]), ints[tb], (ints[trow], ints[tcol])
            except KeyError:
                try:
                    site, bank, package = (int(tx), int(ty)), int(tb), (int(trow), int(tcol))
                except ValueError:
                    raise FloorplanError(lineno, "PIN fields must be integers") from None
                ints.update(zip((tx, ty, tb, trow, tcol), (*site, bank, *package)))
            if not (0 <= site[0] < cols and 0 <= site[1] < rows):
                raise FloorplanError(lineno, f"pin site {site} outside grid")
            if package in balls:
                raise FloorplanError(lineno, f"pin {name!r} is on package ball "
                                             f"{package} of pin {balls[package]!r}")
            balls[package] = name
            plan.pins.append(_pin((name, group, site, bank, package)))
        elif kw == "NET":
            pending.append((lineno, tokens))
        else:
            raise FloorplanError(lineno, f"unknown keyword {tokens[0]!r}")

    if plan is None:
        raise FloorplanError(1, "missing DEVICE line")

    region_names = {r.name for r in plan.regions}
    net_names = set()
    for lineno, tokens in pending:
        net = _parse_net(tokens, lineno, region_names, plan)
        if net.name in net_names:
            raise FloorplanError(lineno, f"duplicate net name {net.name!r}")
        net_names.add(net.name)
        plan.nets.append(net)
    return plan


def _parse_net(tokens, lineno, region_names, plan):
    i = 1
    if len(tokens) < 2:
        raise FloorplanError(lineno, "NET needs a name")
    name = tokens[i]
    i += 1
    is_clock = False
    if i < len(tokens) and tokens[i].upper() == "CLOCK":
        is_clock = True
        i += 1
    if i + 1 >= len(tokens) or tokens[i].upper() != "SRC":
        raise FloorplanError(lineno, "NET missing SRC <region>")
    source = tokens[i + 1]
    i += 2
    if i + 1 >= len(tokens) or tokens[i].upper() != "LOADS":
        raise FloorplanError(lineno, "NET missing LOADS <r1,r2,...>")
    loads = tuple(filter(None, tokens[i + 1].split(",")))
    if not loads:
        raise FloorplanError(lineno, "NET needs at least one load region")
    i += 2
    if i < len(tokens) and tokens[i].upper() != "PIPS":
        raise FloorplanError(lineno, f"unexpected token {tokens[i]!r}")
    pips = []
    if i + 1 < len(tokens):
        for entry in tokens[i + 1].split(";"):
            if not entry:
                continue
            try:
                x, y, state = entry.split(":")
                x, y, state = int(x), int(y), state.lower()
            except ValueError:
                raise FloorplanError(lineno, f"bad PIP entry {entry!r}") from None
            if state not in ("used", "unused"):
                raise FloorplanError(lineno, f"bad PIP entry {entry!r}")
            if not (0 <= x < plan.cols and 0 <= y < plan.rows):
                raise FloorplanError(lineno, f"PIP ({x},{y}) outside grid")
            pips.append((x, y, state == "used"))
    for region in (source, *loads):
        if region not in region_names:
            raise FloorplanError(lineno, f"net {name!r} references unknown "
                                         f"region {region!r}")
    if i + 2 < len(tokens):
        raise FloorplanError(lineno, f"unexpected token {tokens[i + 2]!r}")
    return _net((name, is_clock, source, loads, tuple(pips)))


# -- IDF-1: provenance ---------------------------------------------------

_IDF1_FIELDS = ("tool_version", "date", "design", "directory", "user",
                "platform", "host")


def check_idf1(plan, env=None):
    """Report provenance header lines; this check never yields violations."""
    env = env or {}
    return [f"{key}: {env.get(key, 'unknown')}" for key in _IDF1_FIELDS]


# -- IDF-2: IOB bank sharing ----------------------------------------------


def check_idf2(plan, strict=False):
    banks = {}
    for pin in plan.pins:
        banks.setdefault(pin.bank, []).append(pin)
    violations = []
    severity = SEVERITY_ERROR if strict else SEVERITY_WARNING
    for bank in sorted(banks):
        groups = sorted({p.group for p in banks[bank]})
        if len(groups) > 1:
            violations.append(_violation((
                "IDF-2", severity, tuple(groups),
                f"bank {bank} hosts pins from {len(groups)} isolation groups")))
    return violations


# -- IDF-3: package pin adjacency -----------------------------------------


# Half of the eight compass neighbours: every adjacent pair of balls is
# met once, from whichever end sees the other in one of these directions.
_COMPASS_HALF = ((0, 1), (1, -1), (1, 0), (1, 1))


def check_idf3(plan):
    pins = plan.pins
    at = {pin.package: i for i, pin in enumerate(pins)}
    pairs = []
    for i, pin in enumerate(pins):
        group = pin.group
        r, c = pin.package
        for dr, dc in _COMPASS_HALF:
            j = at.get((r + dr, c + dc))
            if j is not None and pins[j].group != group:
                pairs.append((i, j) if i < j else (j, i))
    pairs.sort()
    violations = []
    for i, j in pairs:
        a, b = pins[i], pins[j]
        violations.append(_violation((
            "IDF-3", SEVERITY_ERROR, (a.name, b.name),
            f"package pins {a.package} and {b.package} of groups "
            f"{a.group}/{b.group} are adjacent")))
    return violations


# -- IDF-4: region adjacency ----------------------------------------------


def _rect_gap(a, b):
    """Chebyshev distance between the closest tiles of two rectangles."""
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    dx = max(bx0 - ax1, ax0 - bx1, 0)
    dy = max(by0 - ay1, ay0 - by1, 0)
    return max(dx, dy)


def check_idf4(plan):
    regions = plan.regions
    # Sweep in x0 order: a region can only be within one tile of those
    # that start at most one column past its right edge.
    order = sorted(range(len(regions)), key=lambda k: regions[k].rect[0])
    pairs = []
    for n, i in enumerate(order):
        a = regions[i]
        _, ay0, ax1, ay1 = a.rect
        for m in range(n + 1, len(order)):
            j = order[m]
            b = regions[j]
            bx0, by0, _, by1 = b.rect
            if bx0 > ax1 + 1:
                break
            if a.group != b.group and by0 <= ay1 + 1 and ay0 <= by1 + 1:
                pairs.append((i, j) if i < j else (j, i))
    pairs.sort()
    violations = []
    for i, j in pairs:
        a, b = regions[i], regions[j]
        kind = "overlaps" if _rect_gap(a.rect, b.rect) == 0 else "touches"
        violations.append(_violation((
            "IDF-4", SEVERITY_ERROR, (a.name, b.name),
            f"region {a.name} ({a.group}) {kind} region {b.name} ({b.group})")))
    return violations


# -- IDF-5: occupied tile adjacency ----------------------------------------


def check_idf5(plan):
    # The first region in file order that holds a tile owns it: the regions
    # paint their groups over every key in reverse file order, one slice per
    # rectangle column, so the first region's paint is the one left.
    stride = plan.rows + 1
    paint = [None] * (plan.cols * stride)
    for region in reversed(plan.regions):
        x0, y0, x1, y1 = region.rect
        h = y1 - y0 + 1
        run = [region.group] * h
        for at in range(x0 * stride + y0, x1 * stride + y0 + 1, stride):
            paint[at:at + h] = run
    # Each occupied tile's group by key; a spare column past the grid keeps
    # `key + stride` in range.
    owner = [None] * (len(paint) + stride)
    for key, kind in plan.tiles.items():
        if kind != "NULL":
            owner[key] = paint[key]
    # (key, 0 for the right neighbour or 1 for the one above, groups)
    found = []
    for key in plan.tiles:
        group = owner[key]
        if group is None:
            continue
        # Only look right and up, so each unordered pair reports once.
        other = owner[key + stride]
        if other is not None and other != group:
            found.append((key, 0, group, other))
        # Above a top-row tile is the spare row, which holds no tile.
        other = owner[key + 1]
        if other is not None and other != group:
            found.append((key, 1, group, other))
    found.sort()
    violations = []
    for key, up, group, other in found:
        x, y = divmod(key, stride)
        nx, ny = (x, y + 1) if up else (x + 1, y)
        violations.append(_violation((
            "IDF-5", SEVERITY_ERROR,
            (f"({x},{y})", f"({nx},{ny})"),
            f"occupied tiles ({x},{y})[{group}] and ({nx},{ny})"
            f"[{other}] are adjacent")))
    return violations


# -- IDF-6: routing ---------------------------------------------------------


def _is_inter_region(net):
    return net.loads.count(net.source) < len(net.loads)


def check_idf6(plan):
    violations = []
    inter = [n for n in plan.nets if _is_inter_region(n)]

    for net in inter:
        # One load is one region: only a net with more can span two.
        if len(net.loads) > 1 and len(load_regions := sorted(set(net.loads))) > 1:
            violations.append(_violation((
                "IDF-6", SEVERITY_ERROR, (net.name,),
                f"net {net.name} has loads in {len(load_regions)} isolated "
                f"regions ({','.join(load_regions)})")))

    fence = plan.fence
    stride = plan.rows + 1
    for net in inter:
        fence_used = [used for (x, y, used) in net.pips if x * stride + y in fence]
        if not fence_used:
            continue
        if net.is_clock and not any(fence_used):
            continue  # clock nets may leave unused PIPs in the fence
        violations.append(_violation((
            "IDF-6", SEVERITY_ERROR, (net.name,),
            f"net {net.name} has PIPs in the fence")))

    first = {}   # tile key -> the first net with a PIP on that tile
    shared = {}  # tile key -> names of all its nets, once a second one arrives
    for net in inter:
        for (x, y, _used) in net.pips:
            key = x * stride + y
            seen = first.setdefault(key, net.name)
            if seen != net.name:
                shared.setdefault(key, {seen}).add(net.name)
    nets_by_name = {n.name: n for n in inter}
    for key in sorted(shared):
        names = sorted(shared[key])
        endpoints = {(nets_by_name[n].source, tuple(sorted(nets_by_name[n].loads)))
                     for n in names}
        if len(endpoints) > 1:
            x, y = divmod(key, stride)
            violations.append(_violation((
                "IDF-6", SEVERITY_ERROR, tuple(names),
                f"tile ({x},{y}) hosts inter-region nets without a common "
                f"source and load")))
    return violations


def run_all_checks(plan, env=None, strict_banks=False):
    header = check_idf1(plan, env)
    violations = []
    violations.extend(check_idf2(plan, strict=strict_banks))
    violations.extend(check_idf3(plan))
    violations.extend(check_idf4(plan))
    violations.extend(check_idf5(plan))
    violations.extend(check_idf6(plan))
    return header, violations


# -- fence geometry ----------------------------------------------------------


def fence_consequence(width, orientation):
    """Routing spans removed by a fence of the given width, or UNCROSSABLE."""
    if width < 1:
        raise ValueError("fence width must be >= 1")
    table = _CONSEQUENCES.get(orientation.lower()[:1])
    if table is None:
        raise ValueError(f"orientation must be horizontal or vertical, "
                         f"not {orientation!r}")
    for widest, spans in table:
        if width <= widest:
            return spans
    return UNCROSSABLE


def render_report(header, violations):
    lines = ["IDF-1|info|provenance|" + " ".join(header)]
    lines.extend(v.line() for v in violations)
    return "\n".join(lines)
