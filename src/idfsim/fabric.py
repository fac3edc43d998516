"""Simulated PL configuration plane.

Frame memory is addressed by FAR (frame address register) values.  A frame
is exactly 101 32-bit words (3232 bits), held as 404 big-endian bytes from
DRAM through the engine to the DUT.  A configuration bit is one index
0..3231, bit `b & 31` of word `b >> 5`: flip_frame_bit alone maps it to a
byte and mask, and DutModel._rescan inlines the inverse in its hot loop.
The configuration engine consumes packet streams: writes go through a
one-frame buffer and commit a frame only once the first word of the next
frame arrives, so the trailing all-zero flush frame in a write sequence is
what pushes the last real frame into memory.  Reads emit one dummy frame of
zeros ahead of real frame data for the same reason.

Stream decoding costs a few steps per packet, not per word.  Before sync
the engine skips to the next word-aligned SYNC word with one byte search
(the SYNC bytes at an unaligned offset are no sync), a run of two or more
NOOPs is skipped with one regex match, and a Type-1 header of a known
register is decoded by one lookup in a table built at import, keyed on its
top 19 bits.

FAR field layout (block_type[25:23], top_bottom[22], row[21:17],
column[16:7], minor[6:0]).  Frame addresses are plain integer FAR words
throughout, and DeviceGeometry owns the layout: it alone packs fields into
FAR words, keys DeviceGeometry.column_minors on `far >> 7` and compares the
minor `far & 0x7F` with them.  ConfigEngine.execute inlines the same
arithmetic at three sites, for speed: the FAR-write check and the
within-column step `far + 1` of the commit and read loops.

Frame memory has one writer, the FDRI commit loop in ConfigEngine.execute:
it alone stores frames and their versions, so a bit changes only by a
frame write, as on the device.
"""

import hashlib
import re
from array import array

from .packets import (
    BYTESWAP,
    CmdCode,
    ConfigRegister,
    FRAME_WORDS,
    NOOP_WORD,
    REGISTERS_BY_ADDR,
    SYNC_WORD,
)

FRAME_BITS = FRAME_WORDS * 32
FRAME_BYTES = FRAME_WORDS * 4
ZERO_FRAME = bytes(FRAME_BYTES)

# A run of NOOP words from an aligned offset of a stream, matched in one
# possessive step: the read-back request holds runs of 6 and 32.
_NOOP_RUN = re.compile(b"(?:" + re.escape(NOOP_WORD.to_bytes(4, "big")) + b")++")

# ConfigEngine.execute dispatches on REGISTERS_BY_ADDR and these, bound
# once: on Python 3.11 a ConfigRegister(addr) call or a member read costs
# several times a dict lookup or a module global.
_FDRI = ConfigRegister.FDRI
_FDRO = ConfigRegister.FDRO
_CMD = ConfigRegister.CMD
_IDCODE = ConfigRegister.IDCODE
_FAR = ConfigRegister.FAR
_UNMODELED = frozenset({ConfigRegister.MASK, ConfigRegister.CTL0, ConfigRegister.CRC})
# plain ints: a payload word compares with an IntEnum member more slowly
_WCFG = int(CmdCode.WCFG)
_RCFG = int(CmdCode.RCFG)
_DESYNC = int(CmdCode.DESYNC)

# Every Type-1 header of a known register, keyed on its top 19 bits
# (type, op, register address): `w >> 13` -> (op, register).  The count is
# `w & 0x7FF`: reserved bits 11-12 play no part in a header.
_TYPE1_HEADERS = {(0b001 << 16) | (op << 14) | addr: (op, reg)
                  for addr, reg in REGISTERS_BY_ADDR.items() for op in range(4)}
_SYNC_BYTES = SYNC_WORD.to_bytes(4, "big")


def flip_frame_bit(frame, bit):
    """`frame` with bit `bit & 31` of word `bit >> 5` flipped."""
    flipped = bytearray(frame)
    flipped[(bit >> 3) ^ 3] ^= 1 << (bit & 7)
    return bytes(flipped)


class DeviceGeometry:
    """Frame address space of one device profile.

    `columns` is an ordered list of (kind, minor_count) pairs shared by
    every row, half and block type; the FAR enumeration order is minor,
    column, row, half, block type.  `column_minors` maps each column's
    `far >> 7` to its minor count in that order, and `_after` maps it to
    the next column's first FAR word, or None.
    """

    def __init__(self, name, rows_per_half, columns, block_types=(0,)):
        if rows_per_half < 1:
            raise ValueError("rows_per_half must be >= 1")
        if not columns:
            raise ValueError("geometry needs at least one column")
        for kind, m in columns:
            if not 1 <= m <= 128:
                raise ValueError(f"column {kind}: minor count {m} outside 1..128")
        minors = [int(m) for _, m in columns]
        block_types = sorted(set(int(b) for b in block_types))
        if not block_types:
            raise ValueError("geometry needs at least one block type")
        # the keys pack the fields unchecked: the extreme values must fit
        for field, v, limit in (("block_type", block_types[0], 7),
                                ("block_type", block_types[-1], 7),
                                ("row", rows_per_half - 1, 31),
                                ("column", len(minors) - 1, 1023)):
            if not 0 <= v <= limit:
                raise ValueError(f"FAR field {field}={v} outside 0..{limit}")
        self.name = name
        self.column_minors = {
            (block_type << 16) | (half << 15) | (row << 10) | column: m
            for block_type in block_types for half in (0, 1)
            for row in range(rows_per_half)
            for column, m in enumerate(minors)}
        keys = list(self.column_minors)
        self._after = dict(zip(keys, [k << 7 for k in keys[1:]] + [None]))

    @property
    def total_frames(self):
        return sum(self.column_minors.values())

    def is_valid_far(self, far_word):
        """True when the integer FAR word addresses a frame of this geometry."""
        return far_word & 0x7F < self.column_minors.get(far_word >> 7, 0)

    def first_far(self):
        return next(iter(self.column_minors)) << 7

    def next_far(self, far_word):
        """Advance to the next FAR word, or None past the last frame."""
        minors = self.column_minors.get(far_word >> 7, 0)
        if far_word & 0x7F >= minors:
            raise ValueError(f"FAR 0x{far_word:08x} is not valid for geometry {self.name}")
        if (far_word & 0x7F) + 1 < minors:
            return far_word + 1
        return self._after[far_word >> 7]

    def far_words(self):
        """Every FAR word in enumeration order, as next_far steps from first_far."""
        words = []
        for key, minors in self.column_minors.items():
            words.extend(range(key << 7, (key << 7) + minors))
        return words


def desk_geometry():
    """Tiny exhaustive address space: 2 halves x 4 columns, 18 frames."""
    return DeviceGeometry(
        "desk",
        rows_per_half=1,
        columns=[("CLB", 4), ("CLB", 2), ("BRAM", 2), ("DSP", 1)],
    )


def z7020like_geometry():
    """Synthetic full-size profile: 9158 frames, 29,598,656 configuration bits."""
    columns = []
    for i in range(241):
        if i % 12 == 5:
            kind = "BRAM"
        elif i % 12 == 11:
            kind = "DSP"
        else:
            kind = "CLB"
        columns.append((kind, 19))
    return DeviceGeometry("z7020like", rows_per_half=1, columns=columns)


_BUILTIN_GEOMETRIES = {
    "desk": desk_geometry,
    "z7020like": z7020like_geometry,
}


def load_geometry(source):
    """Resolve a geometry by builtin name or config file path.

    File format is line-oriented key/value text (`=` optional), e.g.:

        name smallboard
        rows_per_half 2
        block_types 0
        column CLB 4
        column BRAM 2
    """
    builtin = _BUILTIN_GEOMETRIES.get(str(source))
    if builtin is not None:
        return builtin()
    name = None
    rows = None
    block_types = [0]
    columns = []
    with open(source, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.replace("=", " ").split()
            key = tokens[0].lower()
            try:
                if key == "name":
                    name = tokens[1]
                elif key == "rows_per_half":
                    rows = int(tokens[1])
                elif key == "block_types":
                    block_types = [int(t, 0) for t in tokens[1:]]
                elif key == "column":
                    columns.append((tokens[1], int(tokens[2])))
                else:
                    raise ValueError(f"unknown key {key!r}")
            except (IndexError, ValueError) as exc:
                raise ValueError(f"{source}:{lineno}: {exc}") from None
    if name is None or rows is None or not columns:
        raise ValueError(f"{source}: geometry needs name, rows_per_half and columns")
    try:
        return DeviceGeometry(name, rows, columns, block_types)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


class ConfigEngine:
    """The PL-side configuration state machine.

    One engine is exclusively owned by one caller at a time.  `execute`
    consumes a stream of big-endian 32-bit words and returns (readback,
    events), the read-back data as big-endian bytes; everything before a
    word-aligned sync word is ignored, skipped in one `bytes.find` step,
    and a DESYNC command drops sync again.  Events are stable lowercase
    strings.  Type-1 headers of known registers are decoded through
    `_TYPE1_HEADERS` (`w >> 13` -> op, register; the count is `w & 0x7FF`);
    Type-2 headers, unknown registers and stray words take the general
    path.  Every register write and read is applied in `execute` itself;
    a CMD, FAR or IDCODE write takes only its first payload word.

    `current_far` is the integer FAR word the next frame commits to or
    reads from, or None once the last frame is passed or a FAR write
    named no frame of the geometry (`bad_far`).  A full frame commits only
    when the next frame's first word arrives.  An FDRI write commits every
    such frame as a fresh slice of the incoming stream, so a write takes
    time linear in its words, and afterwards `frame_buffer` holds only the
    frame still being received, at most FRAME_BYTES bytes.
    Frames in `memory` are immutable FRAME_BYTES-byte `bytes`, so callers
    and the DUT baseline share them without copying.  Since `current_far`
    is valid by construction, the commit and read loops step it by one
    inside a column and call `DeviceGeometry.next_far` only at a carry.

    `frame_versions` maps each FAR word written to the mutation count of
    its last change, in that order: versions increase from first to last.
    The commit loop is the only writer of `memory`, `frame_versions` and
    `_mutations`.
    """

    def __init__(self, geometry, device_id):
        self.geometry = geometry
        self.device_id = device_id & 0xFFFFFFFF
        self.synced = False
        self.idcode_ok = False
        # The code of WCFG or RCFG, whichever came last since sync; else None.
        self.cfg_cmd = None
        self.current_far = geometry.first_far()
        self.last_type1_reg = None
        self.frame_buffer = b""
        # FAR word -> frame bytes; absent frames read as zero.
        self.memory = {}
        self.frame_versions = {}
        self._mutations = 0

    def execute(self, data):
        if not isinstance(data, bytes):
            # Frames are slices of `data`: a mutable buffer is copied first.
            data = bytes(memoryview(data))
        words = array("I", data)  # the packets word codec's view
        if BYTESWAP:
            words.byteswap()
        readback = []  # every read's frames, joined once at the end
        events = []
        column_minors = self.geometry.column_minors
        synced = self.synced  # these three are stored back at the end
        far = self.current_far
        reg = self.last_type1_reg  # the register a Type-2 header continues
        i = 0
        n = len(words)
        while i < n:
            if not synced:
                # Only a word-aligned SYNC syncs: skip to it in one step.
                at = data.find(_SYNC_BYTES, 4 * i)
                while at > 0 and at & 3:
                    at = data.find(_SYNC_BYTES, at + 1)
                if at < 0:
                    break
                i = (at >> 2) + 1
                synced = True
                self.idcode_ok = False
                self.cfg_cmd = reg = None
                self.frame_buffer = b""
                events.append("sync")
                continue
            w = words[i]
            i += 1
            if w == NOOP_WORD:  # a run of them at once
                if i < n and words[i] == NOOP_WORD:
                    i = _NOOP_RUN.match(data, 4 * i).end() >> 2
                continue
            header = _TYPE1_HEADERS.get(w >> 13)
            if header is not None:
                op, reg = header
                count = w & 0x7FF
            elif w >> 29 == 0b010:  # continues the last Type-1 register
                op = (w >> 27) & 0x3
                count = w & 0x7FFFFFF
            else:
                if w >> 29 == 0b001:  # a register the engine does not know
                    events.append(f"ignored_register addr={(w >> 13) & 0x3FFF}")
                    if (w >> 27) & 0x3 == 2:
                        i += w & 0x7FF  # its payload
                else:
                    events.append(f"ignored_word word=0x{w:08x}")
                continue
            if op == 2:
                end = i + count
                if end > n:
                    name = reg.name.lower() if w >> 29 == 0b001 else "type2"
                    events.append(f"truncated_payload reg={name}")
                    end = n
                if reg is _CMD:  # only the first payload word counts
                    if i < end:
                        code = words[i]
                        if code == _DESYNC:
                            synced = False
                            self.cfg_cmd = None
                            self.frame_buffer = b""
                            events.append("desync")
                        elif code == _WCFG or code == _RCFG:
                            self.cfg_cmd = code
                elif reg is _FDRI:
                    if self.cfg_cmd != _WCFG:
                        events.append("fdri_without_wcfg")
                    elif not self.idcode_ok:
                        events.append("fdri_rejected_idcode")
                    elif i < end:
                        # Word-at-a-time equivalent: a full buffered frame
                        # commits as soon as the next frame's first word
                        # arrives, so every frame but the last one received
                        # commits now, sliced straight from `data`.
                        buf = self.frame_buffer
                        start = 4 * i
                        stop = 4 * end
                        ready = (len(buf) + stop - start - 4) // FRAME_BYTES
                        if ready <= 0:
                            self.frame_buffer = buf + data[start:stop]
                        else:
                            at = start + FRAME_BYTES - len(buf)
                            # where the frame left buffered starts
                            last = at + (ready - 1) * FRAME_BYTES
                            frame = buf + data[start:at]
                            memory = self.memory
                            versions = self.frame_versions
                            version = self._mutations
                            while far is not None:
                                memory[far] = frame
                                version += 1
                                versions.pop(far, None)
                                versions[far] = version
                                if (far & 0x7F) + 1 < column_minors[far >> 7]:
                                    far += 1
                                else:
                                    far = self.geometry.next_far(far)
                                if at == last:
                                    break
                                frame = data[at:at + FRAME_BYTES]
                                at += FRAME_BYTES
                            else:
                                # `frame` and every frame after it up to
                                # `last` find no FAR
                                events.extend(["far_overrun"]
                                              * ((last - at) // FRAME_BYTES + 1))
                            self._mutations = version
                            self.frame_buffer = data[last:stop]
                elif reg is _FAR:
                    if i < end:
                        word = words[i]
                        # DeviceGeometry.is_valid_far, without the call
                        if word & 0x7F < column_minors.get(word >> 7, 0):
                            far = word
                        else:  # no frame to write or read until a valid FAR
                            far = None
                            events.append(f"bad_far word=0x{word:08x}")
                elif reg is _IDCODE:
                    word = words[i] if i < end else None
                    self.idcode_ok = word == self.device_id
                    if not self.idcode_ok:
                        events.append(f"idcode_mismatch got=0x{word or 0:08x}")
                elif reg not in _UNMODELED:
                    # MASK, CTL0 and CRC writes, as the desync footer makes
                    # them, are accepted but not modeled.
                    events.append("ignored_write reg="
                                  f"{reg.name.lower() if reg else 'none'}")
                i = end
            elif op == 1:
                if not count:
                    continue
                if reg is not _FDRO:
                    events.append("ignored_read reg="
                                  f"{reg.name.lower() if reg else 'none'}")
                elif self.cfg_cmd != _RCFG:
                    events.append("fdro_without_rcfg")
                else:
                    size = 4 * count
                    readback.append(ZERO_FRAME)  # the frame buffer's dummy frame
                    have = FRAME_BYTES
                    memory = self.memory
                    while have < size:
                        if far is None:
                            events.append("read_overrun")
                            readback.append(bytes(size - have))
                            break
                        readback.append(memory.get(far, ZERO_FRAME))
                        have += FRAME_BYTES
                        if (far & 0x7F) + 1 < column_minors[far >> 7]:
                            far += 1
                        else:
                            far = self.geometry.next_far(far)
                    if have > size:  # the count ends inside the last frame
                        readback[-1] = readback[-1][:size - have]
            else:
                events.append(f"ignored_word word=0x{w:08x}")
        self.synced = synced
        self.current_far = far
        self.last_type1_reg = reg
        return b"".join(readback), events


def snapshot_digest(engine):
    """SHA-256 over every frame in FAR enumeration order."""
    h = hashlib.sha256()
    memory = engine.memory
    for far_word in engine.geometry.far_words():
        h.update(memory.get(far_word, ZERO_FRAME))
    return h.hexdigest()


def dump_frames(engine, path):
    """Binary frame dump: 101 big-endian words per frame, FAR order."""
    memory = engine.memory
    with open(path, "wb") as f:
        for far_word in engine.geometry.far_words():
            f.write(memory.get(far_word, ZERO_FRAME))


def load_frame_dump(path, geometry):
    """Read a frame dump back into a FAR-word keyed dict of 101-word
    `array("I")` frames."""
    with open(path, "rb") as f:
        data = f.read()
    expected = geometry.total_frames * FRAME_BYTES
    if len(data) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, found {len(data)}")
    words = array("I")  # the packets word codec's view, swapped once
    words.frombytes(data)
    if BYTESWAP:
        words.byteswap()
    return {far_word: words[i * FRAME_WORDS:(i + 1) * FRAME_WORDS]
            for i, far_word in enumerate(geometry.far_words())}
