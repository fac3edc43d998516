"""Bit-exact codec for 7-series style configuration words.

A configuration stream is a flat sequence of 32-bit words: a handful of
special framing words (dummy, bus-width sync/detect, sync), then Type-1 and
Type-2 packets.  Type-1 headers carry an opcode, a register address and an
11-bit word count; Type-2 headers extend the count to 27 bits and apply to
the register selected by the previous Type-1 header.

Header layout (fixed here, validated against every literal command word the
reference sequences use):

    type  [31:29]   001 = Type-1, 010 = Type-2
    op    [28:27]   00 = no-op, 01 = read, 10 = write
    reg   [26:13]   Type-1 only (Type-2 has count bits here)
    count [10:0]    Type-1; Type-2 uses [26:0]
"""

import struct
import sys
from array import array
from dataclasses import dataclass
from enum import Enum, IntEnum

WORD_MASK = 0xFFFFFFFF

DUMMY_WORD = 0xFFFFFFFF
BUS_WIDTH_SYNC_WORD = 0x000000BB
BUS_WIDTH_DETECT_WORD = 0x11220044
SYNC_WORD = 0xAA995566
NOOP_WORD = 0x20000000
FLUSH_WORD = 0x00000000

# Zedboard (XC7Z020) device identification code.
ZEDBOARD_IDCODE = 0x23727093

TYPE1_MAX_COUNT = 2047
TYPE2_MAX_COUNT = (1 << 27) - 1

FRAME_WORDS = 101


class ConfigRegister(IntEnum):
    CRC = 0
    FAR = 1
    FDRI = 2
    FDRO = 3
    CMD = 4
    CTL0 = 5
    MASK = 6
    IDCODE = 12


class CmdCode(IntEnum):
    WCFG = 0x1
    RCFG = 0x4
    START = 0x5
    RCRC = 0x7
    GRESTORE = 0xA
    SHUTDOWN = 0xB
    DESYNC = 0xD


class OpCode(IntEnum):
    NOOP = 0
    READ = 1
    WRITE = 2


class PacketKind(Enum):
    DUMMY = "dummy"
    BUS_WIDTH_SYNC = "bus_width_sync"
    BUS_WIDTH_DETECT = "bus_width_detect"
    SYNC = "sync"
    NOOP = "noop"
    TYPE1 = "type1"
    TYPE2 = "type2"


# The one-word packets: the special framing words and the Type-1 no-op.
_SPECIAL_WORDS = {
    DUMMY_WORD: PacketKind.DUMMY,
    BUS_WIDTH_SYNC_WORD: PacketKind.BUS_WIDTH_SYNC,
    BUS_WIDTH_DETECT_WORD: PacketKind.BUS_WIDTH_DETECT,
    SYNC_WORD: PacketKind.SYNC,
    NOOP_WORD: PacketKind.NOOP,
}
_KIND_WORDS = {kind: word for word, kind in _SPECIAL_WORDS.items()}

REGISTERS_BY_ADDR = {int(r): r for r in ConfigRegister}


class RangeError(ValueError):
    """A field value does not fit its header slot."""


class DecodeError(ValueError):
    """Stream decode failure; `offset` is the word index of the fault."""

    def __init__(self, offset, message):
        self.offset = offset
        super().__init__(f"word {offset}: {message}")


@dataclass(frozen=True)
class ConfigPacket:
    kind: PacketKind
    op: OpCode | None = None
    reg: ConfigRegister | None = None
    word_count: int = 0
    payload: tuple = ()

    @classmethod
    def dummy(cls):
        return cls(PacketKind.DUMMY)

    @classmethod
    def sync(cls):
        return cls(PacketKind.SYNC)

    @classmethod
    def noop(cls):
        return cls(PacketKind.NOOP)

    @classmethod
    def type1_write(cls, reg, payload):
        payload = tuple(payload)
        return cls(PacketKind.TYPE1, OpCode.WRITE, ConfigRegister(reg),
                   len(payload), payload)

    @classmethod
    def type1_read(cls, reg, word_count):
        return cls(PacketKind.TYPE1, OpCode.READ, ConfigRegister(reg), word_count)

    @classmethod
    def type2_write(cls, payload):
        payload = tuple(payload)
        return cls(PacketKind.TYPE2, OpCode.WRITE, None, len(payload), payload)

    @classmethod
    def type2_read(cls, word_count):
        return cls(PacketKind.TYPE2, OpCode.READ, None, word_count)


@dataclass
class CommandSequence:
    """An ordered word stream: `words` is a native `array("I")` of word
    values, the word codec's own form."""

    words: array


def encode_type1(op, reg, word_count):
    """Encode a Type-1 header word.

    A no-op carries no register or count; reg may be None in that case.
    """
    op = OpCode(op)
    if op is OpCode.NOOP:
        if word_count:
            raise RangeError("no-op word count must be 0")
        return NOOP_WORD
    reg = ConfigRegister(reg)
    if not 0 <= word_count <= TYPE1_MAX_COUNT:
        raise RangeError(f"type1 word count {word_count} exceeds {TYPE1_MAX_COUNT}")
    return (0b001 << 29) | (op << 27) | (int(reg) << 13) | word_count


def encode_type2(op, word_count):
    """Encode a Type-2 header word (count continues the last Type-1 register)."""
    op = OpCode(op)
    if op is OpCode.NOOP:
        raise RangeError("type2 headers are read or write only")
    if not 0 <= word_count <= TYPE2_MAX_COUNT:
        raise RangeError(f"type2 word count {word_count} exceeds {TYPE2_MAX_COUNT}")
    return (0b010 << 29) | (op << 27) | word_count


def encode_packet(packet):
    """Encode one packet into its word list."""
    kind = packet.kind
    word = _KIND_WORDS.get(kind)
    if word is not None:
        return [word]
    write = packet.op is OpCode.WRITE
    if write and len(packet.payload) != packet.word_count:
        raise RangeError("write payload length must equal word count")
    if kind is PacketKind.TYPE1:
        header = encode_type1(packet.op, packet.reg, packet.word_count)
    elif kind is PacketKind.TYPE2:
        header = encode_type2(packet.op, packet.word_count)
    else:
        raise RangeError(f"cannot encode packet kind {kind}")
    return [header, *packet.payload] if write else [header]


def encode_packets(packets):
    words = []
    for p in packets:
        words.extend(encode_packet(p))
    return words


def decode_stream(words):
    """Greedy left-to-right decode of a word stream into packets.

    Special words are recognized whenever the decoder is between packets;
    Type-1/Type-2 write headers consume their declared payloads.  Anything
    that is neither a special word nor a well-formed header is an error at
    an exact word offset.
    """
    packets = []
    words = list(words)
    i = 0
    n = len(words)
    while i < n:
        w = words[i]
        special = _SPECIAL_WORDS.get(w)
        if special is not None:
            packets.append(ConfigPacket(special))
            i += 1
            continue
        ptype = w >> 29
        op_bits = (w >> 27) & 0x3
        if ptype == 0b001:
            reg_addr = (w >> 13) & 0x3FFF
            count = w & 0x7FF
            if w & 0x1800:
                raise DecodeError(i, f"reserved bits set in type1 header 0x{w:08x}")
            if op_bits == OpCode.NOOP:  # NOOP_WORD is a special word
                raise DecodeError(i, f"malformed no-op word 0x{w:08x}")
            if op_bits == 0b11:
                raise DecodeError(i, f"reserved opcode in type1 header 0x{w:08x}")
            reg = REGISTERS_BY_ADDR.get(reg_addr)
            if reg is None:
                raise DecodeError(i, f"unknown register address {reg_addr}")
            if op_bits == OpCode.READ:
                packets.append(ConfigPacket.type1_read(reg, count))
                i += 1
                continue
            if i + 1 + count > n:
                raise DecodeError(i, f"truncated type1 write payload: "
                                     f"need {count}, have {n - i - 1}")
            packets.append(ConfigPacket.type1_write(reg, words[i + 1:i + 1 + count]))
            i += 1 + count
            continue
        if ptype == 0b010:
            count = w & TYPE2_MAX_COUNT
            if op_bits == OpCode.READ:
                packets.append(ConfigPacket.type2_read(count))
                i += 1
                continue
            if op_bits == OpCode.WRITE:
                if i + 1 + count > n:
                    raise DecodeError(i, f"truncated type2 write payload: "
                                         f"need {count}, have {n - i - 1}")
                packets.append(ConfigPacket.type2_write(words[i + 1:i + 1 + count]))
                i += 1 + count
                continue
            raise DecodeError(i, f"invalid opcode in type2 header 0x{w:08x}")
        raise DecodeError(i, f"unknown word 0x{w:08x}")
    return packets


def _cmd_write(code):
    return (encode_type1(OpCode.WRITE, ConfigRegister.CMD, 1), int(code))


# The builders' argument-independent words, encoded once: each encode_type1
# call costs two enum constructor calls.
DESYNC_WRITE = _cmd_write(CmdCode.DESYNC)
_FAR_WRITE = encode_type1(OpCode.WRITE, ConfigRegister.FAR, 1)
_WRITE_HEAD = (DUMMY_WORD, SYNC_WORD, NOOP_WORD,
               encode_type1(OpCode.WRITE, ConfigRegister.IDCODE, 1))
_WCFG_FDRI = (*_cmd_write(CmdCode.WCFG),
              encode_type1(OpCode.WRITE, ConfigRegister.FDRI, 0))
_READBACK_HEAD = (
    DUMMY_WORD, BUS_WIDTH_SYNC_WORD, BUS_WIDTH_DETECT_WORD, DUMMY_WORD,
    SYNC_WORD, NOOP_WORD,
    *_cmd_write(CmdCode.SHUTDOWN), NOOP_WORD,
    *_cmd_write(CmdCode.RCRC), NOOP_WORD,
    NOOP_WORD, NOOP_WORD, NOOP_WORD, NOOP_WORD, NOOP_WORD,
    *_cmd_write(CmdCode.RCFG), NOOP_WORD,
    _FAR_WRITE,
)
_FDRO_READ = encode_type1(OpCode.READ, ConfigRegister.FDRO, 0)
# Word slots of the built streams: a frame write's FAR payload (after the
# IDCODE value and the FAR header) and first frame-data word (after the
# Type-2 header), and a read-back request's FAR payload.
WRITE_FAR_INDEX = len(_WRITE_HEAD) + 2
WRITE_DATA_INDEX = WRITE_FAR_INDEX + len(_WCFG_FDRI) + 2
READBACK_FAR_INDEX = len(_READBACK_HEAD)
_READBACK_PAD = (NOOP_WORD,) * 32
_FLUSH_FRAME = array("I", [FLUSH_WORD]) * FRAME_WORDS


def build_write_frame_sequence(device_id, far, frames):
    """Full frame-write command stream.

    Word order: dummy, sync, no-op, IDCODE write, FAR write, WCFG command,
    a zero-count FDRI header followed by a Type-2 write whose count covers
    the frame data plus one all-zero flush frame, and a closing DESYNC
    command.  The flush frame pushes the last real frame out of the
    configuration engine's frame buffer; it is never committed itself.
    A frame may be any sequence of words; an `array("I")` frame is copied
    whole.
    """
    if not frames:
        raise RangeError("at least one frame is required")
    for f in frames:
        if len(f) != FRAME_WORDS:
            raise RangeError(f"frames must be exactly {FRAME_WORDS} words")
    words = array("I", (
        *_WRITE_HEAD, device_id & WORD_MASK,
        _FAR_WRITE, far & WORD_MASK,
        *_WCFG_FDRI,
        encode_type2(OpCode.WRITE, (len(frames) + 1) * FRAME_WORDS),
    ))
    try:
        for f in frames:
            words.extend(f)
    except (OverflowError, TypeError):
        raise RangeError("frame words must be integers in 0..2**32-1") from None
    words.extend(_FLUSH_FRAME)
    words.extend(DESYNC_WRITE)
    return CommandSequence(words)


def build_readback_sequence(far, n_frames, word_count=None):
    """Frame read-back request stream (shutdown read-back style).

    The requested word count defaults to (n_frames + 1) * 101: the extra
    frame is the dummy the engine's frame buffer emits ahead of real data.
    `word_count` overrides the count verbatim for reproducing reference
    request streams whose counts are not frame-aligned.
    """
    if word_count is None:
        if n_frames < 1:
            raise RangeError("read-back needs at least one frame")
        word_count = (n_frames + 1) * FRAME_WORDS
    return CommandSequence(array("I", (
        *_READBACK_HEAD, far & WORD_MASK,
        _FDRO_READ,
        encode_type2(OpCode.READ, word_count),
        *_READBACK_PAD,
    )))


# De-synchronization footer: GRESTORE, MASK/CTL0 unlock pair, START, DESYNC,
# then pad words.  Carried verbatim; the engine accepts the MASK/CTL0
# writes without modeling them.
DESYNC_FOOTER_WORDS = (
    0x30008001, 0x0000000A,
    0x20000000,
    0x3000C001, 0x00000100,
    0x3000A001, 0x00000000,
    0x30008001, 0x00000005,
    0x20000000,
    0x30008001, 0x0000000D,
    0xFFFFFFFF, 0xFFFFFFFF,
    0x20000000, 0x20000000,
)


def build_desync_footer():
    return CommandSequence(array("I", DESYNC_FOOTER_WORDS))


# The one word codec: words travel as a native array("I"), byteswapped to
# or from big-endian where the host is little-endian.  ConfigEngine.execute
# reads its streams through the same view.
BYTESWAP = sys.byteorder == "little"


def words_to_bytes(words):
    """Pack a sequence of 32-bit words as big-endian bytes; a word
    outside 0..2**32-1 or not an integer raises struct.error, as
    struct.pack does.  An `array("I")` is copied whole and never
    byteswapped in place."""
    try:
        packed = array("I", words)
    except (OverflowError, TypeError):
        struct.pack(f">{len(words)}I", *words)  # raises struct.error
        raise
    if BYTESWAP:
        packed.byteswap()
    return packed.tobytes()


def bytes_to_words(data):
    if len(data) % 4:
        raise DecodeError(len(data) // 4, "byte length is not a multiple of 4")
    words = array("I")
    words.frombytes(data)
    if BYTESWAP:
        words.byteswap()
    return words.tolist()


def write_sequence_file(path, words):
    """Store a word stream as raw big-endian 32-bit words, no header."""
    with open(path, "wb") as f:
        f.write(words_to_bytes(words))


def read_sequence_file(path):
    with open(path, "rb") as f:
        return bytes_to_words(f.read())


def describe_packet(packet):
    """One-line human description, used by the decode CLI."""
    kind = packet.kind
    if kind in _KIND_WORDS:
        return kind.value.replace("_", " ")
    op = packet.op.name.lower()
    if kind is PacketKind.TYPE1:
        return f"type1 {op} {packet.reg.name} count={packet.word_count}"
    return f"type2 {op} count={packet.word_count}"
