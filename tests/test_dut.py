import collections
import gc
import inspect
import random
import sys
import textwrap

import pytest
import hypothesis.strategies as st
from hypothesis import HealthCheck, example, given, settings
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from conftest import write_flipped_bit, write_frames

from idfsim import dut, fabric
from idfsim.aes import aes256_encrypt
from idfsim.dut import (
    ControlLines,
    Criticality,
    DEFAULT_KEY,
    DesignHaltedError,
    DutConfig,
    DutModel,
    MatchLine,
    SensitivityMap,
    StartsNotAssertedError,
    fault_mask,
    sensitivity_generate,
    widen_input,
)
from idfsim.fabric import (
    ConfigEngine,
    FRAME_BITS,
    FRAME_WORDS,
    ZERO_FRAME,
    desk_geometry,
    z7020like_geometry,
)
from idfsim.packets import ZEDBOARD_IDCODE, bytes_to_words


def _oracle_encrypt(key, block):
    enc = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
    return enc.update(block) + enc.finalize()


def _oracle_decrypt(key, block):
    dec = Cipher(algorithms.AES(key), modes.ECB()).decryptor()
    return dec.update(block) + dec.finalize()


class TestAes256:
    def test_fips_vector(self):
        key = bytes(range(32))
        pt = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
        # confirm the frozen vector against the independent oracle first
        assert _oracle_encrypt(key, pt) == expected
        assert aes256_encrypt(key, pt) == expected

    def test_matches_oracle_on_random_vectors(self):
        rng = random.Random(0xAE5)
        for _ in range(64):
            key = bytes(rng.randrange(256) for _ in range(32))
            pt = bytes(rng.randrange(256) for _ in range(16))
            assert aes256_encrypt(key, pt) == _oracle_encrypt(key, pt)

    def test_round_trip_via_oracle_decrypt(self):
        rng = random.Random(7)
        key = bytes(rng.randrange(256) for _ in range(32))
        pt = bytes(rng.randrange(256) for _ in range(16))
        assert _oracle_decrypt(key, aes256_encrypt(key, pt)) == pt

    def test_deterministic(self):
        key = DEFAULT_KEY
        pt = widen_input(0xA)
        assert aes256_encrypt(key, pt) == aes256_encrypt(key, pt)

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            aes256_encrypt(b"short", b"\x00" * 16)
        with pytest.raises(ValueError):
            aes256_encrypt(b"\x00" * 32, b"\x00" * 15)


class TestFaultMask:
    def test_deterministic(self):
        assert fault_mask(0x00400080, 17) == fault_mask(0x00400080, 17)

    def test_nonzero_over_many_positions(self):
        rng = random.Random(99)
        for _ in range(10_000):
            far = rng.getrandbits(26)
            bit = rng.randrange(FRAME_BITS)
            assert fault_mask(far, bit) != 0

    def test_adjacent_bits_differ(self):
        for far in (0, 0x80, 0x00400100):
            for bit in range(0, 64):
                assert fault_mask(far, bit) != fault_mask(far, bit + 1)
            # Pairwise distinct over a whole frame: with both modules
            # faulted, run_check compares their masks.
            masks = {fault_mask(far, bit) for bit in range(FRAME_BITS)}
            assert len(masks) == FRAME_BITS

    def test_128_bit_range(self):
        for bit in (0, 1, 3231):
            assert 0 < fault_mask(0, bit) < (1 << 128)


class TestWidenInput:
    def test_replicates_nibble(self):
        assert widen_input(0x5) == b"\x55" * 16
        assert widen_input(0x0) == b"\x00" * 16
        assert widen_input(0xF) == b"\xff" * 16

    def test_range(self):
        with pytest.raises(ValueError):
            widen_input(16)


class TestSensitivityMap:
    def test_exact_counts(self):
        geo = desk_geometry()
        frames = geo.far_words()
        smap = sensitivity_generate(5, frames, 1234)
        assert smap.critical_count == 1234

    def test_zero_count_is_empty(self):
        geo = desk_geometry()
        smap = sensitivity_generate(5, geo.far_words(), 0)
        assert smap.critical_count == 0
        assert list(smap.iter_entries()) == []

    def test_count_overflow(self):
        geo = desk_geometry()
        with pytest.raises(ValueError):
            sensitivity_generate(5, geo.far_words()[:1], FRAME_BITS + 1)

    @pytest.mark.parametrize("split, count", [
        ((0, 0, 0), 10), ((-1, 1, 1), 10), ((float("nan"), 1, 1), 10),
        ((0.45, 0.45, 0.10), -1)])
    def test_bad_split_or_count_rejected(self, split, count):
        geo = desk_geometry()
        with pytest.raises(ValueError):
            sensitivity_generate(5, geo.far_words(), count, split=split)

    def test_zero_fractions_allowed(self):
        geo = desk_geometry()
        smap = sensitivity_generate(5, geo.far_words(), 10, split=(1, 0, 0))
        assert {crit for _, _, crit in smap.iter_entries()} == {
            Criticality.MODULE0}

    def test_deterministic(self):
        geo = desk_geometry()
        a = sensitivity_generate(42, geo.far_words(), 500)
        b = sensitivity_generate(42, geo.far_words(), 500)
        assert list(a.iter_entries()) == list(b.iter_entries())

    def test_split_classes_present(self):
        geo = desk_geometry()
        smap = sensitivity_generate(1, geo.far_words(), 300)
        classes = {crit for _, _, crit in smap.iter_entries()}
        assert classes == {Criticality.MODULE0, Criticality.MODULE1,
                           Criticality.COMPARATOR}

    def test_save_load_round_trip(self, tmp_path):
        geo = desk_geometry()
        smap = sensitivity_generate(3, geo.far_words(), 77)
        path = tmp_path / "map.txt"
        smap.save(path)
        loaded = SensitivityMap.load(path)
        assert list(loaded.iter_entries()) == list(smap.iter_entries())

    def test_round_trip_keeps_every_entry(self, tmp_path):
        geo = z7020like_geometry()
        smap = sensitivity_generate(9, geo.far_words()[:3], 2500)
        path = tmp_path / "map.txt"
        smap.save(path)
        loaded = SensitivityMap.load(path)
        assert loaded.critical_count == smap.critical_count == 2500
        assert loaded.frames == smap.frames
        assert list(loaded.iter_entries()) == list(smap.iter_entries())

    def test_add_string_or_member_same_map(self):
        by_name, by_member = SensitivityMap(), SensitivityMap()
        for i, crit in enumerate(list(Criticality) * 3):
            by_name.add(i % 4, i, crit.value)
            by_member.add(i % 4, i, crit)
        assert list(by_name.iter_entries()) == list(by_member.iter_entries())
        assert by_name.critical_count == by_member.critical_count == 9
        with pytest.raises(ValueError):
            by_name.add(0, 0, "module2")

    @pytest.mark.parametrize("first, second", [
        (Criticality.MODULE0, Criticality.NOT_CRITICAL),
        (Criticality.NOT_CRITICAL, Criticality.MODULE0),
        (Criticality.MODULE0, Criticality.MODULE1),
    ])
    def test_later_add_replaces_earlier(self, first, second):
        smap = SensitivityMap()
        smap.add(0, 5, first)
        smap.add(0, 5, second)
        entries = [] if second is Criticality.NOT_CRITICAL else [(0, 5, second)]
        assert list(smap.iter_entries()) == entries
        assert smap.frames == [far for far, _, _ in entries]
        assert smap.critical_count == len(entries)
        # unmapping a bit of a frame the map lacks adds no frame
        smap.add(3, 1, Criticality.NOT_CRITICAL)
        assert smap.frames == [far for far, _, _ in entries]

    def test_unmapping_one_bit_keeps_its_frame(self):
        smap = SensitivityMap()
        smap.add(0, 5, Criticality.MODULE0)
        smap.add(0, 6, Criticality.MODULE1)
        smap.add(0, 5, Criticality.NOT_CRITICAL)
        assert list(smap.iter_entries()) == [(0, 6, Criticality.MODULE1)]
        assert smap.frames == [0]
        assert smap.critical_count == 1

    def test_file_format(self, tmp_path):
        smap = SensitivityMap()
        smap.add(0x00000080, 35, Criticality.MODULE1)
        path = tmp_path / "map.txt"
        smap.save(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "0x00000080 35 module1"

    def test_load_rejects_bad_lines(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("0x0 12 nonsense\n")
        with pytest.raises(ValueError, match="map.txt:1"):
            SensitivityMap.load(path)
        path.write_text("0x80 5000 module0\n")
        with pytest.raises(ValueError, match="map.txt:1: bit index 5000 "
                           "outside 0..3231"):
            SensitivityMap.load(path)

    def test_bit_range_enforced(self):
        smap = SensitivityMap()
        with pytest.raises(ValueError):
            smap.add(0, FRAME_BITS, Criticality.MODULE0)

    @pytest.mark.parametrize("token, far", [("-0x5", -5),
                                            ("0x1ffffffff", 0x1FFFFFFFF)])
    def test_far_must_fit_32_bits(self, tmp_path, token, far):
        # `save` writes eight hex digits; a FAR outside them would write a
        # file that `load` refuses.
        path = tmp_path / "map.txt"
        path.write_text(f"0x80 1 module0\n{token} 3 module0\n")
        with pytest.raises(ValueError, match=f"map.txt:2: FAR {far:#x} "
                           "outside 0..0xffffffff"):
            SensitivityMap.load(path)
        with pytest.raises(ValueError, match=f"FAR {far:#x} outside"):
            SensitivityMap().add(far, 3, Criticality.MODULE0)

    def test_top_far_round_trips(self, tmp_path):
        smap = SensitivityMap()
        smap.add(0xFFFFFFFF, 3231, Criticality.COMPARATOR)
        path = tmp_path / "map.txt"
        smap.save(path)
        assert path.read_text().splitlines()[1] == "0xffffffff 3231 comparator"
        loaded = SensitivityMap.load(path)
        assert list(loaded.iter_entries()) == [
            (0xFFFFFFFF, 3231, Criticality.COMPARATOR)]


def _reference_load(path):
    """The line-by-line loader the one-pass `SensitivityMap.load` replaced,
    one `add` per line.  Its one change: `add`'s range errors name the
    line, as every other bad line's does."""
    classes = {"module0": Criticality.MODULE0, "module1": Criticality.MODULE1,
               "comparator": Criticality.COMPARATOR}
    smap = SensitivityMap()
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'FAR bit class'")
            try:
                far_word = int(parts[0], 16)
                bit = int(parts[1])
                crit = classes[parts[2]]
            except (ValueError, KeyError):
                raise ValueError(f"{path}:{lineno}: cannot parse {line!r}") from None
            try:
                smap.add(far_word, bit, crit)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return smap


def _loaded(load, path):
    """Everything a load shows: the frames' bit dicts in insertion order
    and the public views, or the exception it raised."""
    try:
        smap = load(path)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)
    graph = [(far, list(bits.items())) for far, bits in smap._by_far.items()]
    return (graph, list(smap.iter_entries()), smap.critical_count, smap.frames)


# One FAR in several spellings, a second FAR, and bit tokens in and out of
# the canonical spelling.
_FAR_SPELLINGS = ["0xb", "0x0000000B", "B", "b", "0X0b", "0x80", "80",
                  "0x00000080"]
_BIT_SPELLINGS = ["0", "5", "05", "+5", "31", "3231", "1_0"]
_MAP_LINES = st.one_of(
    st.builds(lambda far, bit, cls, sep: sep.join((far, bit, cls)),
              st.sampled_from(_FAR_SPELLINGS), st.sampled_from(_BIT_SPELLINGS),
              st.sampled_from(["module0", "module1", "comparator"]),
              st.sampled_from([" ", "\t", "   "])),
    st.sampled_from(["# sensitivity map", "#", "  # 0x80 5 module0",
                     "#0x80 5 module0", "", "   ", "\t"]),
)
_BAD_LINES = st.sampled_from([
    "0x80 5", "0x80 5 module0 extra",                   # token count
    "0xZZ 5 module0", "0x80 five module0", "0x80 5.0 module0",
    "0x80 5 Module0", "0x80 5 not_critical",            # cannot parse
    "0x80 3232 module0", "0x80 -1 module0", "B 5000 comparator",  # range
    "-0x5 3 module0", "0x1ffffffff 4 module1", "-1 5000 module0",
    "0x80 5000 bogus", "0xZZ 5000 module0",             # both: parse first
])


class TestLoadDifferential:
    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(_MAP_LINES, max_size=30),
           bad=st.none() | st.tuples(st.integers(0, 30), _BAD_LINES),
           endings=st.lists(st.sampled_from(["\n", "\r\n"]), min_size=31,
                            max_size=31),
           final_newline=st.booleans())
    def test_matches_the_line_by_line_loader(self, tmp_path, lines, bad,
                                             endings, final_newline):
        if bad is not None:
            at, line = bad
            lines = lines[:at] + [line] + lines[at:]
        text = "".join(line + end for line, end in zip(lines, endings))
        if not final_newline:
            text = text.rstrip("\r\n")
        path = tmp_path / "map.txt"
        path.write_bytes(text.encode("utf-8"))
        assert _loaded(SensitivityMap.load, path) == _loaded(_reference_load,
                                                             path)


# Python-level calls of loading the seed-7 ref20 benchmark map, counted on
# Python 3.11, besides the UTF-8 decoder's: the line-by-line loader made
# one `add` call per map line, 25,911 in all.
MAP_LOAD_CALLS = 6


def test_map_load_work_is_pinned(tmp_path, perfbench_gen):
    # The load makes no Python-level call per line: a call added to the
    # loop fails.  The text file object decodes 8 KiB at a time, through a
    # decoder whose `decode` is Python-level on 3.11: one call per chunk.
    text, per_frame = perfbench_gen.sensitivity_map(7, perfbench_gen.REF_FRAMES)
    path = tmp_path / "sensitivity.map"
    path.write_text(text, encoding="utf-8")
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_qualname] += 1

    gc.disable()
    sys.setprofile(profile)
    try:
        smap = SensitivityMap.load(path)
    finally:
        sys.setprofile(None)
        gc.enable()
    assert smap.critical_count == sum(per_frame.values()) == 25911
    assert dict(collections.Counter(
        far for far, _, _ in smap.iter_entries())) == per_frame
    chunks = calls.pop("BufferedIncrementalDecoder.decode", 0)
    assert chunks <= path.stat().st_size // 8192 + 2
    assert sum(calls.values()) <= MAP_LOAD_CALLS, calls


def _engine():
    return ConfigEngine(desk_geometry(), ZEDBOARD_IDCODE)


def _lines():
    return ControlLines(clk_en=1, start_0=1, start_1=1)


class TestDutRunCheck:
    def test_no_flips_match_low_all_inputs(self):
        engine = _engine()
        smap = SensitivityMap()
        for input4 in range(16):
            result = DutModel(sensitivity_map=smap).run_check(engine, _lines(),
                                                              input4)
            assert result.match_line is MatchLine.LOW
            assert result.outputs[0] == result.outputs[1]

    def test_module0_flip_detected(self):
        engine = _engine()
        smap = SensitivityMap()
        smap.add(0, 100, Criticality.MODULE0)
        write_flipped_bit(engine, 0, 100)
        result = DutModel(sensitivity_map=smap).run_check(engine, _lines(), 0)
        assert result.match_line is MatchLine.HIGH
        assert result.outputs[0] != result.outputs[1]

    def test_module1_flip_detected(self):
        engine = _engine()
        smap = SensitivityMap()
        smap.add(0x80, 9, Criticality.MODULE1)
        write_flipped_bit(engine, 0x80, 9)
        result = DutModel(sensitivity_map=smap).run_check(engine, _lines(), 3)
        assert result.match_line is MatchLine.HIGH

    def test_comparator_flip_forces_high(self):
        engine = _engine()
        smap = SensitivityMap()
        smap.add(0, 5, Criticality.COMPARATOR)
        write_flipped_bit(engine, 0, 5)
        result = DutModel(sensitivity_map=smap).run_check(engine, _lines(), 0)
        assert result.match_line is MatchLine.HIGH
        # the comparator itself is broken: outputs may still be equal
        assert result.outputs[0] == result.outputs[1]

    def test_not_critical_flip_match_low(self):
        engine = _engine()
        smap = SensitivityMap()
        smap.add(0, 77, Criticality.MODULE0)
        write_flipped_bit(engine, 0, 64)  # bit 64: not in the map
        result = DutModel(sensitivity_map=smap).run_check(engine, _lines(), 0)
        assert result.match_line is MatchLine.LOW

    def test_flip_then_restore_low_for_all_inputs(self):
        engine = _engine()
        smap = SensitivityMap()
        smap.add(0, 0, Criticality.MODULE1)
        write_flipped_bit(engine, 0, 0)
        write_flipped_bit(engine, 0, 0)
        for input4 in range(16):
            result = DutModel(sensitivity_map=smap).run_check(engine, _lines(),
                                                              input4)
            assert result.match_line is MatchLine.LOW

    def test_polarity_low_iff_equal(self):
        engine = _engine()
        smap = SensitivityMap()
        smap.add(0, 1, Criticality.MODULE0)
        result = DutModel(sensitivity_map=smap).run_check(engine, _lines(), 0)
        assert (result.match_line is MatchLine.LOW) == (
            result.outputs[0] == result.outputs[1])
        write_flipped_bit(engine, 0, 1)
        result = DutModel(sensitivity_map=smap).run_check(engine, _lines(), 0)
        assert (result.match_line is MatchLine.LOW) == (
            result.outputs[0] == result.outputs[1])

    def test_clk_en_low_halts(self):
        with pytest.raises(DesignHaltedError):
            DutModel(sensitivity_map=SensitivityMap()).run_check(
                _engine(), ControlLines(clk_en=0, start_0=1, start_1=1), 0)

    def test_starts_required(self):
        with pytest.raises(StartsNotAssertedError):
            DutModel(sensitivity_map=SensitivityMap()).run_check(
                _engine(), ControlLines(clk_en=1, start_0=1, start_1=0), 0)

    def test_lowest_flip_selects_mask(self):
        engine = _engine()
        smap = SensitivityMap()
        smap.add(0, 10, Criticality.MODULE0)
        smap.add(0, 200, Criticality.MODULE0)
        write_flipped_bit(engine, 0, 10)
        write_flipped_bit(engine, 0, 200)
        result = DutModel(sensitivity_map=smap).run_check(engine, _lines(), 0)
        base = int.from_bytes(aes256_encrypt(DEFAULT_KEY, widen_input(0)), "big")
        assert int.from_bytes(result.outputs[0], "big") == base ^ fault_mask(0, 10)

    def test_model_cache_tracks_mutations(self):
        engine = _engine()
        smap = SensitivityMap()
        smap.add(0, 4, Criticality.MODULE0)
        model = DutModel(DutConfig(), smap)
        model.capture_baseline(engine)
        assert model.run_check(engine, _lines(), 0).match_line is MatchLine.LOW
        write_flipped_bit(engine, 0, 4)
        assert model.run_check(engine, _lines(), 0).match_line is MatchLine.HIGH
        write_flipped_bit(engine, 0, 4)
        assert model.run_check(engine, _lines(), 0).match_line is MatchLine.LOW

    def test_baseline_rebase(self):
        # flips are relative to the captured golden state, not to zero
        engine = _engine()
        write_flipped_bit(engine, 0, 4)
        smap = SensitivityMap()
        smap.add(0, 4, Criticality.MODULE0)
        model = DutModel(DutConfig(), smap)
        model.capture_baseline(engine)
        assert model.run_check(engine, _lines(), 0).match_line is MatchLine.LOW

    def test_rebase_after_checks_of_the_frame(self):
        # A check keeps the baseline frame it compared with; a new
        # baseline must replace it, or every bit that differs from the old
        # one would read as flipped.
        engine = _engine()
        smap = SensitivityMap()
        smap.add(0, 4, Criticality.MODULE0)
        smap.add(0, 9, Criticality.COMPARATOR)
        model = DutModel(DutConfig(), smap)
        model.capture_baseline(engine)
        write_flipped_bit(engine, 0, 4)
        assert model.run_check(engine, _lines(), 0).flip0 == (0, 4)
        write_flipped_bit(engine, 0, 9)
        model.capture_baseline(engine)
        assert model.run_check(engine, _lines(), 0).match_line is MatchLine.LOW
        write_flipped_bit(engine, 0, 4)
        assert _checked(model, engine) == (MatchLine.HIGH, (0, 4), None)


def _layout_mismatches():
    """Bits the frame layout gets wrong: the flip must set bit `k` of word
    `w` of the big-endian frame, position `32 * (100 - w) + k` of it as an
    integer, and a one-bit map must report the flip at the same bit."""
    engine = _engine()
    far = engine.geometry.far_words()[5]
    wrong = []
    for bit in range(FRAME_BITS):
        frame = fabric.flip_frame_bit(fabric.ZERO_FRAME, bit)
        at = 32 * (100 - bit // 32) + bit % 32
        smap = SensitivityMap()
        smap.add(far, bit, Criticality.MODULE0)
        write_flipped_bit(engine, far, bit)
        flip0 = DutModel(sensitivity_map=smap).run_check(engine, _lines(), 0).flip0
        write_flipped_bit(engine, far, bit)
        if int.from_bytes(frame, "big") != 1 << at or flip0 != (far, bit):
            wrong.append(bit)
    return wrong


def test_frame_layout_of_every_bit():
    assert _layout_mismatches() == []


def _slip_in_flip(frame, bit):
    flipped = bytearray(frame)
    flipped[bit >> 3] ^= 1 << (bit & 7)  # byte `(bit >> 3) ^ 3` is right
    return bytes(flipped)


def _rescan_with_slipped_decode():
    """DutModel._rescan with its inline position-to-bit decode swapping the
    bytes of each word, as the byte-order slip in the flip does."""
    source = textwrap.dedent(inspect.getsource(DutModel._rescan))
    decode = "bit = (_TOP_WORD_POS - (pos & ~31)) | (pos & 31)"
    assert source.count(decode) == 1
    namespace = {}
    exec(source.replace(decode, decode + " ^ 24"), vars(dut), namespace)
    return namespace["_rescan"]


@pytest.mark.parametrize("where", ["fabric", "dut"])
def test_frame_layout_check_sees_a_byte_order_slip(monkeypatch, where):
    if where == "fabric":
        monkeypatch.setattr(fabric, "flip_frame_bit", _slip_in_flip)
    else:
        monkeypatch.setattr(DutModel, "_rescan", _rescan_with_slipped_decode())
    assert _layout_mismatches() == list(range(FRAME_BITS))


def test_match_line_from_flipped_classes():
    fars = desk_geometry().far_words()
    classes = {
        Criticality.MODULE0: [(fars[1], 7), (fars[1], 900), (fars[4], 3)],
        Criticality.MODULE1: [(fars[1], 8), (fars[2], 0), (fars[4], 3231)],
        Criticality.COMPARATOR: [(fars[2], 64), (fars[3], 5)],
    }
    smap = SensitivityMap()
    for crit, bits in classes.items():
        for far, bit in bits:
            smap.add(far, bit, crit)
    seen = set()

    # With colliding masks both faulted modules give equal outputs, which
    # real masks almost never do.
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.tuples(*(st.sets(st.sampled_from(bits)) for bits in classes.values())),
           st.integers(0, 15), st.booleans())
    def check(flips, input4, colliding):
        m0, m1, comparator = flips
        seen.add((bool(m0), bool(m1), bool(comparator)))
        engine = _engine()
        model = DutModel(sensitivity_map=smap)
        model.capture_baseline(engine)
        for far, bit in m0 | m1 | comparator:
            write_flipped_bit(engine, far, bit)
        mask = (lambda far, bit: 0x5A5A) if colliding else fault_mask
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("idfsim.dut.fault_mask", mask)
            result = model.run_check(engine, _lines(), input4)
            outputs = result.outputs
        base = int.from_bytes(aes256_encrypt(DEFAULT_KEY, widen_input(input4)), "big")
        for out, flipped in zip(outputs, (m0, m1)):
            want = base ^ mask(*min(flipped)) if flipped else base
            assert out == want.to_bytes(16, "big")
        assert (result.match_line is MatchLine.HIGH) == bool(
            comparator or outputs[0] != outputs[1])

    check()
    assert seen == {(a, b, c) for a in (False, True) for b in (False, True)
                    for c in (False, True)}


# Differential check of the incremental scan against a full rescan.  The map
# covers the first 12 desk frames, every third bit of all 101 words;
# operations toggle any bit, so about a third of them hit a mapped bit, or
# rewrite a frame with random words, hundreds of bits away from its baseline.
_FARS = desk_geometry().far_words()
_CLASSES = [Criticality.MODULE0, Criticality.MODULE1, Criticality.COMPARATOR]


def _diff_map():
    smap = SensitivityMap()
    for i, far in enumerate(_FARS[:12]):
        for bit in range(i % 3, FRAME_BITS, 3):
            smap.add(far, bit, _CLASSES[(i + bit) % 3])
    return smap


_DIFF_MAP = _diff_map()


def _oracle_flips(model, engine):
    grouped = {crit: [] for crit in _CLASSES}
    zero = [0] * FRAME_WORDS
    memory = {far: bytes_to_words(f) for far, f in engine.memory.items()}
    baseline = {far: bytes_to_words(f) for far, f in model.baseline.items()}
    for far, bit, crit in model.smap.iter_entries():
        cur = memory.get(far, zero)[bit >> 5]
        ref = baseline.get(far, zero)[bit >> 5]
        if (cur ^ ref) >> (bit & 31) & 1:
            grouped[crit].append((far, bit))
    return grouped


def _oracle_check(model, engine):
    """`run_check`'s (match_line, flip0, flip1), worked out from the oracle:
    each module's first flip, and a high line on a comparator flip or on
    outputs that differ, that is on different fault masks."""
    grouped = _oracle_flips(model, engine)
    flip0 = min(grouped[Criticality.MODULE0], default=None)
    flip1 = min(grouped[Criticality.MODULE1], default=None)
    masks = [0 if flip is None else fault_mask(*flip) for flip in (flip0, flip1)]
    high = grouped[Criticality.COMPARATOR] or masks[0] != masks[1]
    return MatchLine.HIGH if high else MatchLine.LOW, flip0, flip1


def _checked(model, engine):
    result = model.run_check(engine, _lines(), 0)
    return result.match_line, result.flip0, result.flip1


_MODEL = st.integers(0, 2)
_SLOT = st.integers(0, 1)
_BIT = st.integers(0, FRAME_BITS - 1)
_OPS = st.one_of(
    st.tuples(st.just("flip"), _SLOT, st.sampled_from(_FARS), _BIT),
    # rewrite 1-2 consecutive frames with some bits toggled
    st.tuples(st.just("write"), _SLOT, st.integers(0, len(_FARS) - 2),
              st.integers(1, 2), st.lists(_BIT, max_size=3)),
    # rewrite one frame with random words
    st.tuples(st.just("scramble"), _SLOT, st.sampled_from(_FARS),
              st.integers(0, 2**32 - 1)),
    st.tuples(st.just("check"), _MODEL),
    st.tuples(st.just("capture"), _MODEL),
    st.tuples(st.just("new_model"), _MODEL, _SLOT),
    st.tuples(st.just("move"), _MODEL, _SLOT),
    st.tuples(st.just("fresh_engine"), _SLOT),
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.lists(_OPS, max_size=30))
# A check reports only each module's first flip, so a flip that a lower one
# masks goes unseen; this example makes the only flip one that a scan of a
# new engine must find in the baseline alone.
@example([("flip", 0, _FARS[0], 0), ("capture", 0), ("move", 0, 1),
          ("check", 0)])
def test_flipped_bits_match_full_rescan(ops):
    engines = [_engine(), _engine()]
    # models 0 and 1 share engine 0
    models = [[DutModel(sensitivity_map=_DIFF_MAP), slot] for slot in (0, 0, 1)]
    for op, *args in ops:
        if op == "flip":
            slot, far, bit = args
            write_flipped_bit(engines[slot], far, bit)
        elif op == "write":
            slot, start, count, toggles = args
            engine = engines[slot]
            frames = [bytes_to_words(engine.memory.get(far, ZERO_FRAME))
                      for far in _FARS[start:start + count]]
            for frame in frames:
                for bit in toggles:
                    frame[bit >> 5] ^= 1 << (bit & 31)
            assert write_frames(engine, _FARS[start], frames) == ["sync", "desync"]
        elif op == "scramble":
            slot, far, seed = args
            rng = random.Random(seed)
            frame = [rng.getrandbits(32) for _ in range(FRAME_WORDS)]
            assert write_frames(engines[slot], far, [frame]) == ["sync", "desync"]
        elif op == "fresh_engine":
            engines[args[0]] = _engine()
        else:
            model, engine = models[args[0]][0], engines[models[args[0]][1]]
            if op == "check":
                assert _checked(model, engine) == _oracle_check(model, engine)
            elif op == "capture":
                model.capture_baseline(engine)
            elif op == "new_model":
                models[args[0]] = [DutModel(sensitivity_map=_DIFF_MAP), args[1]]
            else:
                models[args[0]][1] = args[1]
    for model, slot in models:
        assert (_checked(model, engines[slot])
                == _oracle_check(model, engines[slot]))
