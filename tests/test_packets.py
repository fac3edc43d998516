import random
import struct
from array import array

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from idfsim.packets import (
    CmdCode,
    ConfigPacket,
    ConfigRegister,
    DecodeError,
    FRAME_WORDS,
    NOOP_WORD,
    OpCode,
    PacketKind,
    RangeError,
    SYNC_WORD,
    TYPE2_MAX_COUNT,
    ZEDBOARD_IDCODE,
    build_desync_footer,
    build_readback_sequence,
    build_write_frame_sequence,
    bytes_to_words,
    decode_stream,
    describe_packet,
    encode_packet,
    encode_packets,
    encode_type1,
    encode_type2,
    read_sequence_file,
    words_to_bytes,
    write_sequence_file,
)
from idfsim.devc import Dram


class TestEncodeType1:
    def test_cmd_write_header(self):
        assert encode_type1(OpCode.WRITE, ConfigRegister.CMD, 1) == 0x30008001

    def test_noop(self):
        assert encode_type1(OpCode.NOOP, None, 0) == 0x20000000

    def test_known_headers(self):
        assert encode_type1(OpCode.WRITE, ConfigRegister.IDCODE, 1) == 0x30018001
        assert encode_type1(OpCode.WRITE, ConfigRegister.FAR, 1) == 0x30002001
        assert encode_type1(OpCode.WRITE, ConfigRegister.FDRI, 0) == 0x30004000

    def test_fdro_read_header_brute_force(self):
        # Independent oracle: 0x28006000 must decode uniquely over the whole
        # (op, reg, count) space under the adopted layout.
        matches = [
            (op, reg, wc)
            for op in (OpCode.READ, OpCode.WRITE)
            for reg in ConfigRegister
            for wc in range(2048)
            if encode_type1(op, reg, wc) == 0x28006000
        ]
        assert matches == [(OpCode.READ, ConfigRegister.FDRO, 0)]

    def test_word_count_overflow(self):
        with pytest.raises(RangeError):
            encode_type1(OpCode.WRITE, ConfigRegister.FDRI, 2048)

    def test_noop_carries_no_count(self):
        with pytest.raises(RangeError, match="^no-op word count must be 0$"):
            encode_type1(OpCode.NOOP, None, 1)


class TestEncodeType2:
    def test_reference_read_count(self):
        assert encode_type2(OpCode.READ, 2_860_321) == 0x482BA521

    def test_zero_count_write(self):
        assert encode_type2(OpCode.WRITE, 0) == 0x50000000

    def test_write_202(self):
        word = encode_type2(OpCode.WRITE, 202)
        assert word == 0x500000CA
        # mask/shift decode oracle
        assert word >> 29 == 0b010
        assert (word >> 27) & 0x3 == OpCode.WRITE
        assert word & 0x7FFFFFF == 202

    def test_overflow(self):
        with pytest.raises(RangeError):
            encode_type2(OpCode.READ, TYPE2_MAX_COUNT + 1)

    def test_noop_rejected(self):
        with pytest.raises(RangeError, match="^type2 headers are read or write only$"):
            encode_type2(OpCode.NOOP, 0)


class TestDecodeStream:
    def test_dummy_sync_noop(self):
        packets = decode_stream([0xFFFFFFFF, 0xAA995566, 0x20000000])
        assert [p.kind for p in packets] == [
            PacketKind.DUMMY, PacketKind.SYNC, PacketKind.NOOP]

    def test_empty(self):
        assert decode_stream([]) == []

    def test_type1_write_with_payload(self):
        packets = decode_stream([0x30008001, 0x00000001])
        assert packets == [ConfigPacket.type1_write(ConfigRegister.CMD, [1])]

    def test_truncated_payload_offset(self):
        with pytest.raises(DecodeError) as excinfo:
            decode_stream([NOOP_WORD, 0x30008001])
        assert excinfo.value.offset == 1

    def test_unknown_word_offset(self):
        with pytest.raises(DecodeError) as excinfo:
            decode_stream([0x00000037, SYNC_WORD])
        assert excinfo.value.offset == 0

    def test_zero_word_is_unknown(self):
        with pytest.raises(DecodeError):
            decode_stream([0x00000000])

    def test_unknown_register(self):
        bad = (0b001 << 29) | (OpCode.WRITE << 27) | (9 << 13) | 1
        with pytest.raises(DecodeError):
            decode_stream([bad, 0])

    def test_never_reads_past_input(self):
        words = [0x30008001, 0x00000007, NOOP_WORD]
        packets = decode_stream(words)
        assert sum(1 + len(p.payload) for p in packets) == len(words)

    @pytest.mark.parametrize("words, offset, message", [
        ([NOOP_WORD, 0x30008801, 1], 1,
         "reserved bits set in type1 header 0x30008801"),
        ([SYNC_WORD, NOOP_WORD, 0x20000001], 2, "malformed no-op word 0x20000001"),
        ([0x38008001, 1], 0, "reserved opcode in type1 header 0x38008001"),
        ([NOOP_WORD, 0x50000002, 7], 1,
         "truncated type2 write payload: need 2, have 1"),
        ([0x30004000, 0x40000000], 1, "invalid opcode in type2 header 0x40000000"),
    ], ids=["type1_reserved_bits", "malformed_noop", "type1_reserved_opcode",
            "type2_truncated", "type2_noop_opcode"])
    def test_error_offset_and_message(self, words, offset, message):
        with pytest.raises(DecodeError) as excinfo:
            decode_stream(words)
        assert excinfo.value.offset == offset
        assert str(excinfo.value) == f"word {offset}: {message}"


def _random_packet_list(rng):
    packets = [ConfigPacket.dummy() for _ in range(rng.randrange(3))]
    packets.append(ConfigPacket.sync())
    body = []
    for _ in range(rng.randrange(6)):
        choice = rng.randrange(5)
        if choice == 0:
            body.append(ConfigPacket.noop())
        elif choice == 1:
            reg = rng.choice(list(ConfigRegister))
            body.append(ConfigPacket.type1_write(
                reg, [rng.getrandbits(32) for _ in range(rng.randrange(4))]))
        elif choice == 2:
            reg = rng.choice(list(ConfigRegister))
            body.append(ConfigPacket.type1_read(reg, rng.randrange(2048)))
        elif choice == 3:
            body.append(ConfigPacket.type2_write(
                [rng.getrandbits(32) for _ in range(rng.randrange(8))]))
        else:
            body.append(ConfigPacket.type2_read(rng.randrange(TYPE2_MAX_COUNT)))
    return packets + body


def test_round_trip_randomized():
    rng = random.Random(20200229)
    for _ in range(500):
        packets = _random_packet_list(rng)
        assert decode_stream(encode_packets(packets)) == packets


@settings(max_examples=200)
@given(st.lists(st.sampled_from(list(ConfigRegister)), max_size=4),
       st.integers(0, 0xFFFFFFFF), st.data())
def test_round_trip_property(regs, filler, data):
    packets = [ConfigPacket.sync()]
    for reg in regs:
        n = data.draw(st.integers(0, 3))
        packets.append(ConfigPacket.type1_write(reg, [filler] * n))
        packets.append(ConfigPacket.noop())
    assert decode_stream(encode_packets(packets)) == packets


class TestWriteFrameSequence:
    def test_reference_words(self):
        frame = [0xFFFFFFFF] * FRAME_WORDS
        seq = build_write_frame_sequence(ZEDBOARD_IDCODE, 0xFFFFFFFF, [frame])
        w = seq.words.tolist()
        assert w[:11] == [
            0xFFFFFFFF,              # dummy
            0xAA995566,              # sync
            0x20000000,              # no-op
            0x30018001, 0x23727093,  # IDCODE
            0x30002001, 0xFFFFFFFF,  # FAR
            0x30008001, 0x00000001,  # CMD <- WCFG
            0x30004000,              # FDRI, zero count
            0x500000CA,              # type2 write, 202 words
        ]
        assert w[11:112] == frame
        assert w[112:213] == [0x00000000] * FRAME_WORDS
        assert w[213:] == [0x30008001, 0x0000000D]
        assert len(w) == 215

    def test_two_frames_count(self):
        frames = [[0] * FRAME_WORDS, [1] * FRAME_WORDS]
        seq = build_write_frame_sequence(ZEDBOARD_IDCODE, 0, frames)
        packets = decode_stream(seq.words)
        type2 = [p for p in packets if p.kind is PacketKind.TYPE2]
        assert type2[0].word_count == 303

    def test_decodes_cleanly(self):
        seq = build_write_frame_sequence(0x23727093, 0, [[7] * FRAME_WORDS])
        packets = decode_stream(seq.words)
        assert packets[0].kind is PacketKind.DUMMY

    def test_type2_payload_multiple_of_frame(self):
        for k in (1, 2, 5):
            seq = build_write_frame_sequence(0, 0, [[0] * FRAME_WORDS] * k)
            packets = decode_stream(seq.words)
            type2 = [p for p in packets if p.kind is PacketKind.TYPE2][0]
            assert type2.word_count % FRAME_WORDS == 0

    def test_needs_frames(self):
        with pytest.raises(RangeError):
            build_write_frame_sequence(0, 0, [])

    def test_rejects_short_frame(self):
        with pytest.raises(RangeError):
            build_write_frame_sequence(0, 0, [[0] * 100])

    @pytest.mark.parametrize("bad", [-1, 1 << 32, 1.0])
    def test_rejects_a_frame_word_that_is_not_32_bit(self, bad):
        frame = [0] * FRAME_WORDS
        frame[50] = bad
        with pytest.raises(RangeError):
            build_write_frame_sequence(0, 0, [[1] * FRAME_WORDS, frame])

    def test_copies_array_frames(self):
        frame = array("I", range(FRAME_WORDS))
        words = build_write_frame_sequence(0, 0, [frame, frame]).words
        frame[0] = 7
        assert words[11:213].tolist() == [*range(FRAME_WORDS)] * 2
        assert words == build_write_frame_sequence(
            0, 0, [[*range(FRAME_WORDS)]] * 2).words


def test_builders_return_fresh_word_arrays():
    streams = (lambda: build_write_frame_sequence(0, 0, [[0] * FRAME_WORDS]),
               lambda: build_readback_sequence(0, 1),
               build_desync_footer)
    for build in streams:
        words = build().words
        assert type(words) is array and words.typecode == "I"
        expected = words.tolist()
        for i in range(len(words)):  # no builder hands out shared words
            words[i] = 5
        assert build().words.tolist() == expected


class TestReadbackSequence:
    def test_preamble(self):
        seq = build_readback_sequence(0, 1)
        assert seq.words.tolist()[:5] == [
            0xFFFFFFFF, 0x000000BB, 0x11220044, 0xFFFFFFFF, 0xAA995566]

    def test_one_frame_count(self):
        seq = build_readback_sequence(0, 1)
        packets = decode_stream(seq.words)
        type2 = [p for p in packets if p.kind is PacketKind.TYPE2][0]
        assert type2.word_count == 202

    def test_reference_full_stream(self):
        seq = build_readback_sequence(0, 1, word_count=2_860_321)
        n = NOOP_WORD
        expected = [
            0xFFFFFFFF, 0x000000BB, 0x11220044, 0xFFFFFFFF, 0xAA995566,
            n,
            0x30008001, 0x0000000B, n,
            0x30008001, 0x00000007, n,
            n, n, n, n, n,
            0x30008001, 0x00000004, n,
            0x30002001, 0x00000000,
            0x28006000,
            0x482BA521,
        ] + [n] * 32
        assert seq.words.tolist() == expected
        assert len(seq.words) == 56

    def test_requires_a_frame(self):
        with pytest.raises(RangeError):
            build_readback_sequence(0, 0)


class TestDesyncFooter:
    def test_exact_words(self):
        assert build_desync_footer().words.tolist() == [
            0x30008001, 0x0000000A,
            0x20000000,
            0x3000C001, 0x00000100,
            0x3000A001, 0x00000000,
            0x30008001, 0x00000005,
            0x20000000,
            0x30008001, 0x0000000D,
            0xFFFFFFFF, 0xFFFFFFFF,
            0x20000000, 0x20000000,
        ]

    def test_length(self):
        assert len(build_desync_footer().words) == 16

    def test_last_cmd_write_is_desync(self):
        packets = decode_stream(build_desync_footer().words)
        cmd_writes = [p for p in packets
                      if p.kind is PacketKind.TYPE1
                      and p.op is OpCode.WRITE
                      and p.reg is ConfigRegister.CMD]
        assert cmd_writes[-1].payload == (CmdCode.DESYNC,)


def test_sequence_file_round_trip(tmp_path):
    words = build_readback_sequence(0, 3).words
    path = tmp_path / "seq.bin"
    write_sequence_file(path, words)
    assert path.read_bytes()[:4] == b"\xff\xff\xff\xff"  # big-endian, no header
    assert read_sequence_file(path) == words.tolist()


@pytest.mark.parametrize("bad", [-1, 1 << 32, 1.0])
def test_codec_rejects_a_bad_word_as_struct_does(bad):
    words = [0x12345678, bad, 7]
    with pytest.raises(struct.error):
        words_to_bytes(words)
    dram = Dram()
    dram.write_words(0x1000, [1, 2, 3])
    before = dram.read_bytes(0x1000, 0x4010)
    for addr in (0x1000, 0x1FFC, 0x5000):  # written, across a page, unwritten
        with pytest.raises(struct.error):
            dram.write_words(addr, words)
    assert dram.read_bytes(0x1000, 0x4010) == before


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.integers(0, 0xFFFFFFFF), max_size=300))
@example([])
def test_codec_matches_struct(words):
    data = struct.pack(f">{len(words)}I", *words)
    assert words_to_bytes(words) == data
    assert words_to_bytes(tuple(words)) == data
    packed = array("I", words)
    assert words_to_bytes(packed) == data
    assert packed.tolist() == words  # copied, never byteswapped in place
    assert bytes_to_words(data) == list(struct.unpack(f">{len(words)}I", data))
    assert bytes_to_words(bytearray(data)) == words
    assert bytes_to_words(memoryview(data)) == words


def test_codec_rejects_a_ragged_byte_string():
    with pytest.raises(DecodeError):
        bytes_to_words(b"\x00" * 5)


def test_describe_packet():
    assert describe_packet(ConfigPacket.sync()) == "sync"
    p = ConfigPacket.type1_write(ConfigRegister.CMD, [7])
    assert describe_packet(p) == "type1 write CMD count=1"


# One packet of each kind and op, its words and its description.
_EACH_PACKET = [
    (ConfigPacket.dummy(), [0xFFFFFFFF], "dummy"),
    (ConfigPacket(PacketKind.BUS_WIDTH_SYNC), [0x000000BB], "bus width sync"),
    (ConfigPacket(PacketKind.BUS_WIDTH_DETECT), [0x11220044],
     "bus width detect"),
    (ConfigPacket.sync(), [0xAA995566], "sync"),
    (ConfigPacket.noop(), [0x20000000], "noop"),
    (ConfigPacket.type1_write(ConfigRegister.CMD, [7]), [0x30008001, 7],
     "type1 write CMD count=1"),
    (ConfigPacket.type1_read(ConfigRegister.FDRO, 0), [0x28006000],
     "type1 read FDRO count=0"),
    (ConfigPacket.type2_write([5, 6]), [0x50000002, 5, 6],
     "type2 write count=2"),
    (ConfigPacket.type2_read(2_860_321), [0x482BA521],
     "type2 read count=2860321"),
]


@pytest.mark.parametrize("packet, words, text", _EACH_PACKET,
                         ids=[text for _, _, text in _EACH_PACKET])
def test_encode_and_describe_each_packet(packet, words, text):
    assert encode_packet(packet) == words
    assert decode_stream(words) == [packet]
    assert describe_packet(packet) == text


@pytest.mark.parametrize("kind, word_count", [
    (PacketKind.TYPE1, 2), (PacketKind.TYPE2, 0),
    (PacketKind.TYPE1, 2048),  # checked before the count overflows the header
])
def test_encode_rejects_a_payload_shorter_or_longer_than_its_count(
        kind, word_count):
    reg = ConfigRegister.CMD if kind is PacketKind.TYPE1 else None
    packet = ConfigPacket(kind, OpCode.WRITE, reg, word_count, (7,))
    with pytest.raises(RangeError,
                       match="^write payload length must equal word count$"):
        encode_packet(packet)


def test_encode_rejects_an_unknown_kind():
    with pytest.raises(RangeError, match="^cannot encode packet kind bogus$"):
        encode_packet(ConfigPacket("bogus"))
