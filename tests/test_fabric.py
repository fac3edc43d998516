import pytest
from hypothesis import given
import hypothesis.strategies as st

from idfsim.fabric import (
    ConfigEngine,
    DeviceGeometry,
    FarFields,
    FRAME_WORDS,
    desk_geometry,
    dump_frames,
    far_decode,
    far_encode,
    load_frame_dump,
    load_geometry,
    snapshot_digest,
    z7020like_geometry,
)
from idfsim.packets import (
    CmdCode,
    ConfigRegister,
    OpCode,
    ZEDBOARD_IDCODE,
    build_readback_sequence,
    build_write_frame_sequence,
    encode_type1,
    encode_type2,
)


def _frame(fill):
    return [(fill * 3 + i) & 0xFFFFFFFF for i in range(FRAME_WORDS)]


class TestFarCodec:
    def test_all_zero(self):
        assert far_encode(FarFields(0, 0, 0, 0, 0)) == 0x00000000

    def test_round_trip_exhaustive_desk(self):
        geo = desk_geometry()
        for f in geo.iter_fars():
            assert far_decode(far_encode(f)) == f

    @given(st.integers(0, 7), st.integers(0, 1), st.integers(0, 31),
           st.integers(0, 1023), st.integers(0, 127))
    def test_round_trip_property(self, bt, tb, row, col, minor):
        f = FarFields(bt, tb, row, col, minor)
        assert far_decode(far_encode(f)) == f
        assert far_decode(far_encode(f)).minor == f.minor

    def test_field_range_errors(self):
        with pytest.raises(ValueError):
            FarFields(8, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            FarFields(0, 0, 0, 0, 128)

    def test_decode_rejects_high_bits(self):
        with pytest.raises(ValueError):
            far_decode(0x04000000)


class TestGeometry:
    def test_desk_frame_count(self):
        geo = desk_geometry()
        # independent enumeration oracle: halves x rows x sum(minors)
        assert geo.total_frames == 2 * 1 * (4 + 2 + 2 + 1) == 18
        assert len(list(geo.iter_fars())) == geo.total_frames
        assert len(set(geo.far_words())) == geo.total_frames

    def test_z7020like_counts(self):
        geo = z7020like_geometry()
        assert geo.total_frames == 9158
        assert geo.total_bits == 29_598_656

    def test_next_far_minor_increment(self):
        geo = desk_geometry()
        f = FarFields(0, 0, 0, 0, 0)
        n = geo.next_far(f)
        assert n == FarFields(0, 0, 0, 0, 1)

    def test_next_far_end(self):
        geo = desk_geometry()
        last = list(geo.iter_fars())[-1]
        assert geo.next_far(last) is None

    def test_next_far_invalid(self):
        geo = desk_geometry()
        with pytest.raises(ValueError):
            geo.next_far(FarFields(0, 0, 0, 0, 99))

    def test_enumeration_matches_total_for_multi_row(self):
        geo = DeviceGeometry("t", rows_per_half=3,
                             columns=[("CLB", 2), ("BRAM", 5)],
                             block_types=(0, 1))
        assert geo.total_frames == 2 * 2 * 3 * 7
        assert len(list(geo.iter_fars())) == geo.total_frames

    def test_load_builtin_by_name(self):
        assert load_geometry("desk").total_frames == 18

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "geo.cfg"
        path.write_text(
            "# test profile\n"
            "name smallboard\n"
            "rows_per_half = 2\n"
            "block_types 0\n"
            "column CLB 4\n"
            "column BRAM 2\n")
        geo = load_geometry(path)
        assert geo.name == "smallboard"
        assert geo.total_frames == 2 * 2 * 6

    def test_far_words_match_enumeration(self, tmp_path):
        path = tmp_path / "geo.cfg"
        path.write_text("name twoblock\nrows_per_half 2\nblock_types 0 1\n"
                        "column CLB 3\ncolumn BRAM 2\n")
        for geo in (desk_geometry(), z7020like_geometry(), load_geometry(path)):
            assert geo.far_words() == [far_encode(f) for f in geo.iter_fars()]

    @pytest.mark.parametrize("rows, columns, block_types", [
        (33, 1, (0,)), (1, 1025, (0,)), (1, 1, (8,)), (1, 1, (-1, 0)),
        (1, 1, ())])
    def test_geometry_must_fit_far_fields(self, rows, columns, block_types):
        with pytest.raises(ValueError):
            DeviceGeometry("big", rows, [("CLB", 1)] * columns, block_types)
        DeviceGeometry("max", 32, [("CLB", 1)] * 1024, (0, 7))

    def test_load_file_errors(self, tmp_path):
        path = tmp_path / "geo.cfg"
        path.write_text("rows_per_half 1\ncolumn CLB 4\n")
        with pytest.raises(ValueError):
            load_geometry(path)  # missing name
        path.write_text("name x\nrows_per_half 1\nbogus 3\n")
        with pytest.raises(ValueError):
            load_geometry(path)


def _write_frames(engine, far_word, frames, device_id=ZEDBOARD_IDCODE):
    seq = build_write_frame_sequence(device_id, far_word, frames)
    return engine.execute(seq.words)


class TestConfigEngine:
    def test_write_then_read_back_exhaustive(self):
        geo = desk_geometry()
        engine = ConfigEngine(geo, ZEDBOARD_IDCODE)
        for i, far_word in enumerate(geo.far_words()):
            frame = _frame(i + 1)
            _write_frames(engine, far_word, [frame])
            out, events = engine.execute(build_readback_sequence(far_word, 1).words)
            assert out[:FRAME_WORDS] == [0] * FRAME_WORDS
            assert out[FRAME_WORDS:] == frame

    def test_readback_is_202_words(self):
        geo = desk_geometry()
        engine = ConfigEngine(geo, ZEDBOARD_IDCODE)
        out, _ = engine.execute(build_readback_sequence(0, 1).words)
        assert len(out) == 202

    def test_wrong_idcode_leaves_memory_unchanged(self):
        engine = ConfigEngine(desk_geometry(), ZEDBOARD_IDCODE)
        before = snapshot_digest(engine)
        _, events = _write_frames(engine, 0, [_frame(1)], device_id=0x11111111)
        assert any(e.startswith("idcode_mismatch") for e in events)
        assert any(e == "fdri_rejected_idcode" for e in events)
        assert snapshot_digest(engine) == before

    def test_fdri_without_wcfg(self):
        engine = ConfigEngine(desk_geometry(), ZEDBOARD_IDCODE)
        words = [
            0xAA995566,
            encode_type1(OpCode.WRITE, ConfigRegister.IDCODE, 1), ZEDBOARD_IDCODE,
            encode_type1(OpCode.WRITE, ConfigRegister.FDRI, 0),
            encode_type2(OpCode.WRITE, 202), *([5] * 202),
        ]
        _, events = engine.execute(words)
        assert "fdri_without_wcfg" in events
        assert engine.memory == {}

    def test_fdro_without_rcfg(self):
        engine = ConfigEngine(desk_geometry(), ZEDBOARD_IDCODE)
        words = [
            0xAA995566,
            encode_type1(OpCode.READ, ConfigRegister.FDRO, 0),
            encode_type2(OpCode.READ, 202),
        ]
        out, events = engine.execute(words)
        assert "fdro_without_rcfg" in events
        assert out == []

    def test_bad_far_event(self):
        engine = ConfigEngine(desk_geometry(), ZEDBOARD_IDCODE)
        words = [
            0xAA995566,
            encode_type1(OpCode.WRITE, ConfigRegister.FAR, 1), 0x00300000,
        ]
        _, events = engine.execute(words)
        assert any(e.startswith("bad_far") for e in events)
        assert engine.current_far == desk_geometry().first_far()

    def test_commit_order_matches_enumeration(self):
        geo = desk_geometry()
        engine = ConfigEngine(geo, ZEDBOARD_IDCODE)
        frames = [_frame(i) for i in range(3)]
        _write_frames(engine, geo.far_words()[0], frames)
        expected = dict(zip(geo.far_words()[:3], frames))
        assert engine.memory == expected

    def test_flush_frame_is_load_bearing(self):
        # A bare 101-word payload stays in the frame buffer: nothing commits
        # until the next frame's first word arrives.
        engine = ConfigEngine(desk_geometry(), ZEDBOARD_IDCODE)
        words = [
            0xAA995566,
            encode_type1(OpCode.WRITE, ConfigRegister.IDCODE, 1), ZEDBOARD_IDCODE,
            encode_type1(OpCode.WRITE, ConfigRegister.CMD, 1), CmdCode.WCFG,
            encode_type1(OpCode.WRITE, ConfigRegister.FAR, 1), 0,
            encode_type1(OpCode.WRITE, ConfigRegister.FDRI, 0),
            encode_type2(OpCode.WRITE, FRAME_WORDS), *_frame(9),
        ]
        engine.execute(words)
        assert engine.memory == {}

    def test_never_commits_partial_frame(self):
        engine = ConfigEngine(desk_geometry(), ZEDBOARD_IDCODE)
        words = [
            0xAA995566,
            encode_type1(OpCode.WRITE, ConfigRegister.IDCODE, 1), ZEDBOARD_IDCODE,
            encode_type1(OpCode.WRITE, ConfigRegister.CMD, 1), CmdCode.WCFG,
            encode_type1(OpCode.WRITE, ConfigRegister.FAR, 1), 0,
            encode_type1(OpCode.WRITE, ConfigRegister.FDRI, 0),
            encode_type2(OpCode.WRITE, 150), *range(150),
        ]
        engine.execute(words)
        assert list(engine.memory) == [0]
        assert all(len(f) == FRAME_WORDS for f in engine.memory.values())

    def test_desync_leaves_memory_unchanged(self):
        engine = ConfigEngine(desk_geometry(), ZEDBOARD_IDCODE)
        _write_frames(engine, 0, [_frame(3)])
        before = snapshot_digest(engine)
        engine.execute([0xAA995566,
                        encode_type1(OpCode.WRITE, ConfigRegister.CMD, 1),
                        CmdCode.DESYNC])
        assert snapshot_digest(engine) == before
        assert not engine.synced

    def test_pre_sync_words_ignored(self):
        engine = ConfigEngine(desk_geometry(), ZEDBOARD_IDCODE)
        _, events = engine.execute([0x12345678, 0xFFFFFFFF, 0x000000BB])
        assert events == []
        assert not engine.synced

    def test_read_past_device_end_pads_zero(self):
        geo = desk_geometry()
        engine = ConfigEngine(geo, ZEDBOARD_IDCODE)
        last = geo.far_words()[-1]
        _write_frames(engine, last, [_frame(8)])
        out, events = engine.execute(build_readback_sequence(last, 2).words)
        assert "read_overrun" in events
        assert len(out) == 303
        assert out[FRAME_WORDS:2 * FRAME_WORDS] == _frame(8)
        assert out[2 * FRAME_WORDS:] == [0] * FRAME_WORDS

    def test_execute_sync_word_only(self):
        engine = ConfigEngine(desk_geometry(), ZEDBOARD_IDCODE)
        readback, events = engine.execute([0xAA995566])
        assert readback == []
        assert events == ["sync"]


class TestSnapshotDigest:
    def test_deterministic(self):
        engine = ConfigEngine(desk_geometry(), ZEDBOARD_IDCODE)
        assert snapshot_digest(engine) == snapshot_digest(engine)

    def test_flip_changes_and_restore_restores(self):
        engine = ConfigEngine(desk_geometry(), ZEDBOARD_IDCODE)
        base = snapshot_digest(engine)
        engine.flip_bit(0, 50, 17)
        assert snapshot_digest(engine) != base
        engine.flip_bit(0, 50, 17)
        assert snapshot_digest(engine) == base

    def test_distinct_across_desk_single_flips(self):
        # collision-free at desk scale: every single-bit flip of word 0
        # yields a distinct digest
        engine = ConfigEngine(desk_geometry(), ZEDBOARD_IDCODE)
        seen = {snapshot_digest(engine)}
        for bit in range(32):
            engine.flip_bit(0, 0, bit)
            seen.add(snapshot_digest(engine))
            engine.flip_bit(0, 0, bit)
        assert len(seen) == 33


def test_frame_dump_round_trip(tmp_path):
    geo = desk_geometry()
    engine = ConfigEngine(geo, ZEDBOARD_IDCODE)
    _write_frames(engine, geo.far_words()[2], [_frame(42)])
    path = tmp_path / "frames.bin"
    dump_frames(engine, path)
    frames = load_frame_dump(path, geo)
    assert len(frames) == geo.total_frames
    assert frames[geo.far_words()[2]] == _frame(42)
    assert frames[geo.far_words()[0]] == [0] * FRAME_WORDS
