"""Seeded input generators and the expected outputs that go with them.

Everything here is computed from the seed alone, without importing idfsim,
so the expectations are an independent check of the program's outputs:

* sensitivity maps (text, `FAR_hex bit class`) for the two campaign shapes,
  with the per-frame critical-bit counts a campaign must report;
* a full-device frame image (101 big-endian words per frame, FAR order);
* a synthetic floorplan with the per-rule violation counts the IDF checks
  must report, counted here with neighbour lookups instead of the
  verifier's pair scans.
"""

import hashlib
import random

FRAME_WORDS = 101
FRAME_BITS = FRAME_WORDS * 32
FRAME_BYTES = FRAME_WORDS * 4

# The builtin `z7020like` geometry: one block type, two halves, one row per
# half, 241 columns of 19 minors each; enumeration order is minor, column,
# half.
Z7020_COLUMNS = 241
Z7020_MINORS = 19

MAP_CRITICAL_BITS = 25911     # critical bits of the reference campaign
REF_FRAMES = 20               # frames of the reference campaign
# Frames drawn for the whole-device campaign.  At about 1.7 ms per injection
# a frame takes about 5.5 s, so a 25 s run reaches about 4 frames; a faster
# program cycles through the sample again.  Set-up warms every drawn frame.
DEVMAP_SAMPLE = 8
MAP_SPLIT = (0.45, 0.45, 0.10)
MAP_CLASSES = ("module0", "module1", "comparator")


def z7020_far_words():
    return [(half << 22) | (col << 7) | minor
            for half in (0, 1)
            for col in range(Z7020_COLUMNS)
            for minor in range(Z7020_MINORS)]


def _rng(kind, seed):
    return random.Random(f"idfsim-perfbench:{kind}:{seed}")


# -- sensitivity maps ----------------------------------------------------------


def sensitivity_map(seed, n_frames):
    """Map text plus the critical-bit count of each mapped FAR.

    `n_frames` consecutive frames from the start of the FAR order share
    MAP_CRITICAL_BITS bits drawn without replacement.
    """
    fars = z7020_far_words()[:n_frames]
    rng = _rng(f"map{n_frames}", seed)
    positions = rng.sample(range(n_frames * FRAME_BITS), MAP_CRITICAL_BITS)
    n0 = round(MAP_CRITICAL_BITS * MAP_SPLIT[0])
    n1 = round(MAP_CRITICAL_BITS * MAP_SPLIT[1])
    classes = ([MAP_CLASSES[0]] * n0 + [MAP_CLASSES[1]] * n1
               + [MAP_CLASSES[2]] * (MAP_CRITICAL_BITS - n0 - n1))
    rng.shuffle(classes)
    per_frame = {}
    lines = ["# sensitivity map: FAR_hex bit_index class"]
    for pos, cls in zip(positions, classes):
        far = fars[pos // FRAME_BITS]
        per_frame[far] = per_frame.get(far, 0) + 1
        lines.append(f"0x{far:08x} {pos % FRAME_BITS} {cls}")
    return "\n".join(lines) + "\n", per_frame


def campaign_frames(seed, workload):
    """FARs a campaign injects, in order; the run cycles through them."""
    fars = z7020_far_words()
    if workload == "campaign_ref20":
        return fars[:REF_FRAMES]
    return _rng("devmap-frames", seed).sample(fars, DEVMAP_SAMPLE)


def expected_frames_csv(fars, per_frame):
    """`frames.csv` of a campaign over `fars` from an untouched baseline.

    Each injection flips one bit of a baseline frame, so a bit is detected
    exactly when the map lists it.
    """
    lines = ["far,injections,critical,non_critical"]
    for far in fars:
        crit = per_frame.get(far, 0)
        lines.append(f"0x{far:08x},{FRAME_BITS},{crit},{FRAME_BITS - crit}")
    return "\n".join(lines) + "\n"


def sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


# -- full-device frame image -----------------------------------------------------


def frame_image(seed):
    """Random contents for every z7020like frame, as a frame-dump file body."""
    n = 2 * Z7020_COLUMNS * Z7020_MINORS
    return _rng("image", seed).randbytes(n * FRAME_BYTES)


# -- floorplan -------------------------------------------------------------------

# Sized so that one parse plus all checks takes about 0.1 s on a 2-vCPU Xeon
# host, two thirds of it in the IDF-3 all-pairs pin scan: operations much
# longer than that cannot be timed steadily while other tenants load the
# host.
GRID_CELLS = 10        # regions on a GRID_CELLS x GRID_CELLS grid of cells
CELL = 10              # tiles per cell side; a region's base rect is 8x8
GROUPS = ("red", "blue", "green", "gold")
TILES_PER_REGION = 40
N_PINS = 700
PKG_SIDE = 64          # package ball grid; each group owns 16 columns
N_NETS = 500
N_LOCAL_NETS = 50
GROW_PROB = 0.03       # a region reaches into its neighbour's gap
BANK_SWAP_PROB = 0.01
MULTI_LOAD_PROB = 0.02
FENCE_PIP_PROB = 0.02
OCCUPIED_KINDS = ("CLB", "CLB", "CLB", "INT", "BRAM", "DSP")


def _rect_gap(a, b):
    dx = max(b[0] - a[2], a[0] - b[2], 0)
    dy = max(b[1] - a[3], a[1] - b[3], 0)
    return max(dx, dy)


def floorplan(seed):
    """Floorplan text and {rule: violation count} for one seed."""
    rng = _rng("floorplan", seed)
    side = GRID_CELLS * CELL
    lines = [f"DEVICE {side} {side}"]

    # Regions: one per cell, base rect inset by one tile, so neighbours are
    # three tiles apart.  A grown region extends two tiles right or up and
    # touches its neighbour.
    regions = {}        # (cx, cy) -> (name, group, rect)
    grown = {}          # (cx, cy) -> "right" | "up"
    for cy in range(GRID_CELLS):
        for cx in range(GRID_CELLS):
            x0, y0 = cx * CELL + 1, cy * CELL + 1
            x1, y1 = x0 + 7, y0 + 7
            if rng.random() < GROW_PROB:
                if cx + 1 < GRID_CELLS and rng.random() < 0.5:
                    x1 += 2
                    grown[(cx, cy)] = "right"
                elif cy + 1 < GRID_CELLS:
                    y1 += 2
                    grown[(cx, cy)] = "up"
            name = f"r{cy * GRID_CELLS + cx}"
            regions[(cx, cy)] = (name, rng.choice(GROUPS), (x0, y0, x1, y1))
    for name, group, (x0, y0, x1, y1) in regions.values():
        lines.append(f"REGION {name} GROUP {group} RECT {x0} {y0} {x1} {y1}")

    # Fences fill the vertical gap strips that no grown region reaches into.
    fence = set()
    for cy in range(GRID_CELLS):
        for cx in range(GRID_CELLS - 1):
            if grown.get((cx, cy)) == "right":
                continue
            if any(grown.get(c) == "up" for c in ((cx, cy - 1), (cx + 1, cy - 1))):
                continue
            x = cx * CELL + 9
            y0, y1 = cy * CELL + 1, cy * CELL + 8
            lines.append(f"FENCE RECT {x} {y0} {x + 1} {y1}")
            fence.update((fx, fy) for fx in (x, x + 1) for fy in range(y0, y1 + 1))

    # Occupied tiles: TILES_PER_REGION in each base rect, plus a few in the
    # extension of a grown region; some NULL and stray tiles as well.
    owner = {}          # occupied (x, y) -> group
    tile_lines = []
    for (cx, cy), (_name, group, rect) in regions.items():
        x0, y0 = rect[0], rect[1]
        base = [(x0 + i, y0 + j) for i in range(8) for j in range(8)]
        for xy in rng.sample(base, TILES_PER_REGION):
            owner[xy] = group
            tile_lines.append((xy, rng.choice(OCCUPIED_KINDS)))
        direction = grown.get((cx, cy))
        if direction is not None:
            if direction == "right":
                ext = [(x0 + 9, y0 + j) for j in range(8)]
            else:
                ext = [(x0 + i, y0 + 9) for i in range(8)]
            for xy in rng.sample(ext, 4):
                owner[xy] = group
                tile_lines.append((xy, "CLB"))
        x, y = rect[2], rect[3] + 1
        if y < side and (x, y) not in fence and _free(x, y, regions):
            tile_lines.append(((x, y), rng.choice(("IOB", "NULL"))))
    rng.shuffle(tile_lines)
    lines.extend(f"TILE {x} {y} {kind}" for (x, y), kind in tile_lines)

    # Pins: each group owns a band of 16 package columns, so only pins on
    # either side of a band edge can be package-adjacent.
    taken = set()
    pins = []           # (name, group, bank, (prow, pcol))
    while len(pins) < N_PINS:
        g = rng.randrange(len(GROUPS))
        pkg = (rng.randrange(PKG_SIDE), 16 * g + rng.randrange(16))
        if pkg in taken:
            continue
        taken.add(pkg)
        bank = (pkg[0] // 8) * 8 + pkg[1] // 8
        if rng.random() < BANK_SWAP_PROB:
            bank = rng.randrange(64)
        pins.append((f"p{len(pins)}", GROUPS[g], bank, pkg))
    for name, group, bank, (prow, pcol) in pins:
        sx, sy = rng.randrange(side), rng.randrange(side)
        lines.append(f"PIN {name} GROUP {group} SITE {sx} {sy} BANK {bank} "
                     f"PKG {prow} {pcol}")

    # Nets: inter-region nets with PIPs scattered over the device, a few
    # with two load regions or PIPs in the fence; plus intra-region nets.
    names = [r[0] for r in regions.values()]
    fence_list = sorted(fence)
    nets = []           # (name, clock, src, loads, pips)
    for i in range(N_NETS + N_LOCAL_NETS):
        src = rng.choice(names)
        if i >= N_NETS:
            loads = (src,)
        else:
            loads = (rng.choice([n for n in rng.sample(names, 3) if n != src]),)
            if rng.random() < MULTI_LOAD_PROB:
                extra = rng.choice(names)
                if extra not in loads:
                    loads = loads + (extra,)
        pips = [(rng.randrange(side), rng.randrange(side), rng.random() < 0.7)
                for _ in range(2)]
        pips = [p for p in pips if (p[0], p[1]) not in fence]
        if rng.random() < FENCE_PIP_PROB:
            fx, fy = rng.choice(fence_list)
            pips.append((fx, fy, rng.random() < 0.5))
        nets.append((f"n{i}", rng.random() < 0.05, src, loads, pips))
    for name, clock, src, loads, pips in nets:
        pip_text = ";".join(f"{x}:{y}:{'used' if u else 'unused'}"
                            for x, y, u in pips)
        lines.append(f"NET {name}{' CLOCK' if clock else ''} SRC {src} "
                     f"LOADS {','.join(loads)} PIPS {pip_text}")

    expected = {
        "IDF-2": _count_bank_sharing(pins),
        "IDF-3": _count_package_adjacent(pins),
        "IDF-4": _count_region_contacts(regions),
        "IDF-5": _count_tile_contacts(owner),
        "IDF-6": _count_routing(nets, fence),
    }
    return "\n".join(lines) + "\n", expected


def _free(x, y, regions):
    """True when (x, y) lies in no region rect (only the cell's own and its
    lower and left neighbours can reach it)."""
    cx, cy = x // CELL, y // CELL
    for c in ((cx, cy), (cx - 1, cy), (cx, cy - 1)):
        r = regions.get(c)
        if r is not None:
            x0, y0, x1, y1 = r[2]
            if x0 <= x <= x1 and y0 <= y <= y1:
                return False
    return True


def _count_bank_sharing(pins):
    groups = {}
    for _name, group, bank, _pkg in pins:
        groups.setdefault(bank, set()).add(group)
    return sum(1 for g in groups.values() if len(g) > 1)


def _count_package_adjacent(pins):
    at = {pkg: group for _name, group, _bank, pkg in pins}
    count = 0
    for (r, c), group in at.items():
        # Half of the 8 compass directions, so each pair counts once.
        for dr, dc in ((0, 1), (1, -1), (1, 0), (1, 1)):
            other = at.get((r + dr, c + dc))
            if other is not None and other != group:
                count += 1
    return count


def _count_region_contacts(regions):
    count = 0
    for (cx, cy), (_n, group, rect) in regions.items():
        for dx, dy in ((1, 0), (-1, 1), (0, 1), (1, 1)):
            other = regions.get((cx + dx, cy + dy))
            if other is not None and other[1] != group and _rect_gap(rect, other[2]) <= 1:
                count += 1
    return count


def _count_tile_contacts(owner):
    count = 0
    for (x, y), group in owner.items():
        for xy in ((x + 1, y), (x, y + 1)):
            other = owner.get(xy)
            if other is not None and other != group:
                count += 1
    return count


def _count_routing(nets, fence):
    inter = [n for n in nets if any(load != n[2] for load in n[3])]
    count = sum(1 for n in inter if len(set(n[3])) > 1)
    for _name, clock, _src, _loads, pips in inter:
        in_fence = [used for x, y, used in pips if (x, y) in fence]
        if in_fence and not (clock and not any(in_fence)):
            count += 1
    endpoints = {}
    for name, _clock, src, loads, pips in inter:
        for x, y, _used in pips:
            endpoints.setdefault((x, y), set()).add((src, tuple(sorted(loads))))
    count += sum(1 for e in endpoints.values() if len(e) > 1)
    return count
