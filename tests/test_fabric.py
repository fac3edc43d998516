import ast
import random
import struct
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import idfsim
from conftest import write_flipped_bit, write_frames
from idfsim.fabric import (
    ConfigEngine,
    DeviceGeometry,
    FRAME_BITS,
    FRAME_BYTES,
    FRAME_WORDS,
    ZERO_FRAME,
    desk_geometry,
    dump_frames,
    load_frame_dump,
    load_geometry,
    snapshot_digest,
    z7020like_geometry,
)
from idfsim.packets import (
    CmdCode,
    ConfigRegister,
    DESYNC_WRITE,
    NOOP_WORD,
    OpCode,
    REGISTERS_BY_ADDR,
    SYNC_WORD,
    ZEDBOARD_IDCODE,
    build_readback_sequence,
    build_write_frame_sequence,
    bytes_to_words,
    encode_type1,
    encode_type2,
    words_to_bytes,
)


def _execute(engine, words):
    """engine.execute on a word list; the read-back comes back as words."""
    out, events = engine.execute(words_to_bytes(words))
    return bytes_to_words(out), events


def _memory_words(engine):
    """engine.memory with each frame as a word list."""
    return {far: bytes_to_words(frame) for far, frame in engine.memory.items()}


def _frame(fill):
    return [(fill * 3 + i) & 0xFFFFFFFF for i in range(FRAME_WORDS)]


def _stepped_fars(geo):
    """FAR words from first_far() by next_far() until it returns None."""
    fars = []
    far_word = geo.first_far()
    while far_word is not None:
        fars.append(far_word)
        far_word = geo.next_far(far_word)
    return fars


def _far(bt, half, row, col, minor):
    """A FAR word packed from its fields, independently of DeviceGeometry."""
    return (bt << 23) | (half << 22) | (row << 17) | (col << 7) | minor


@pytest.fixture(scope="module")
def twoblock_geometry(tmp_path_factory):
    path = tmp_path_factory.mktemp("geo") / "twoblock.cfg"
    path.write_text("name twoblock\nrows_per_half 2\nblock_types 0 1\n"
                    "column CLB 3\ncolumn BRAM 2\n")
    return load_geometry(path)


class TestGeometry:
    def test_desk_frame_count(self):
        geo = desk_geometry()
        # independent enumeration oracle: halves x rows x sum(minors)
        assert geo.total_frames == 2 * 1 * (4 + 2 + 2 + 1) == 18
        assert len(_stepped_fars(geo)) == geo.total_frames
        assert len(set(geo.far_words())) == geo.total_frames

    def test_z7020like_counts(self):
        geo = z7020like_geometry()
        assert geo.total_frames == 9158
        assert geo.total_frames * FRAME_BITS == 29_598_656

    def test_next_far_minor_increment(self):
        geo = desk_geometry()
        f = _far(0, 0, 0, 0, 0)
        n = geo.next_far(f)
        assert n == _far(0, 0, 0, 0, 1)

    def test_next_far_end(self):
        geo = desk_geometry()
        last = geo.far_words()[-1]
        assert geo.next_far(last) is None

    def test_next_far_invalid(self):
        geo = desk_geometry()
        with pytest.raises(ValueError):
            geo.next_far(_far(0, 0, 0, 0, 99))
        with pytest.raises(ValueError):
            geo.next_far(0x04000000)  # bit 26 is outside the FAR fields

    def test_enumeration_matches_total_for_multi_row(self):
        geo = DeviceGeometry("t", rows_per_half=3,
                             columns=[("CLB", 2), ("BRAM", 5)],
                             block_types=(0, 1))
        assert geo.total_frames == 2 * 2 * 3 * 7
        fars = _stepped_fars(geo)
        assert len(fars) == geo.total_frames
        assert fars == geo.far_words()

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

    def test_far_words_match_enumeration(self, twoblock_geometry):
        # next_far's carries, stepped from first_far, against the nested
        # loops of far_words
        for geo in (desk_geometry(), z7020like_geometry(), twoblock_geometry):
            assert geo.far_words() == _stepped_fars(geo)

    @pytest.mark.parametrize("rows, minors, block_types", [
        (1, [4, 2, 2, 1], (0,)),        # desk
        (1, [19] * 241, (0,)),          # z7020like
        (2, [3, 2], (0, 1)),            # twoblock
        (2, [128, 1, 128], (0, 3)),     # wide: full minor field, a gap
        (32, [1] * 1024, (7,)),         # max: full row, column and block fields
    ], ids=["desk", "z7020like", "twoblock", "wide", "max"])
    def test_far_space_matches_field_oracle(self, rows, minors, block_types):
        # The oracle encodes every frame's fields in nested loops, the
        # order UG470 fixes; it shares nothing with the geometry's table.
        geo = DeviceGeometry("oracle", rows, [("CLB", m) for m in minors],
                             block_types)
        fars = []
        beyond = [1 << 26]  # words that must be invalid: bit 26, and each
        for bt in block_types:  # field one past its limit where it fits
            if bt + 1 <= 7 and bt + 1 not in block_types:
                beyond.append(_far(bt + 1, 0, 0, 0, 0))
            for half in (0, 1):
                if rows < 32:
                    beyond.append(_far(bt, half, rows, 0, 0))
                for row in range(rows):
                    if len(minors) < 1024:
                        beyond.append(_far(bt, half, row, len(minors), 0))
                    for column, m in enumerate(minors):
                        if m < 128:
                            beyond.append(_far(bt, half, row, column, m))
                        fars.extend(_far(bt, half, row, column, minor)
                                    for minor in range(m))
        assert geo.far_words() == fars
        assert geo.first_far() == fars[0]
        assert geo.total_frames == len(fars)
        assert [geo.next_far(f) for f in fars] == fars[1:] + [None]
        valid = set(fars)
        for f in fars:
            for word in (f - 1, f + 1):
                assert geo.is_valid_far(word) == (word in valid)
        assert beyond and not valid.intersection(beyond)
        for word in beyond:
            assert not geo.is_valid_far(word)
            with pytest.raises(ValueError, match="not valid for geometry oracle"):
                geo.next_far(word)

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

    @pytest.mark.parametrize("line, message", [
        ("rows_per_half 0", "rows_per_half must be >= 1"),
        ("column CLB 200", "column CLB: minor count 200 outside 1..128"),
        ("rows_per_half 40", "FAR field row=39 outside 0..31"),
    ], ids=["no_rows", "minor_count", "row_field"])
    def test_load_file_names_a_refused_value(self, tmp_path, line, message):
        path = tmp_path / "geo.cfg"
        path.write_text(f"name x\nrows_per_half 1\ncolumn CLB 4\n{line}\n")
        with pytest.raises(ValueError) as info:
            load_geometry(path)
        assert str(info.value) == f"{path}: {message}"

    def test_geometry_needs_a_column(self):
        with pytest.raises(ValueError, match="^geometry needs at least one column$"):
            DeviceGeometry("x", 1, [])


def test_only_fabric_reads_the_far_layout_table():
    # DeviceGeometry owns the FAR field layout: no other module reaches
    # into its column table.
    src = Path(idfsim.__file__).parent
    readers = [path.name for path in sorted(src.glob("*.py"))
               if path.name != "fabric.py" and "column_minors" in path.read_text()]
    assert readers == []


_FRAME_STATE = {"memory", "frame_versions", "_mutations"}
_DICT_WRITERS = {"pop", "popitem", "clear", "update", "setdefault"}


def _scopes(node, prefix=""):
    """(qualified name, node) of every function under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = prefix + child.name
            if not isinstance(child, ast.ClassDef):
                yield name, child
            yield from _scopes(child, name + ".")
        else:
            yield from _scopes(child, prefix)


def _own_nodes(scope):
    """The nodes of `scope`, without those of the functions inside it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _stores_frame_state(scope):
    """True when `scope` assigns, augments, deletes or subscript-stores
    `.memory`, `.frame_versions` or `._mutations`, or calls a dict writer
    such as `.pop` on one, directly or through a local name bound to it."""
    nodes = list(_own_nodes(scope))

    def attr(node):
        return isinstance(node, ast.Attribute) and node.attr in _FRAME_STATE

    aliases = {target.id for node in nodes
               if isinstance(node, ast.Assign) and attr(node.value)
               for target in node.targets if isinstance(target, ast.Name)}

    def state(node):
        return attr(node) or isinstance(node, ast.Name) and node.id in aliases

    for node in nodes:
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _DICT_WRITERS and state(node.func.value):
                return True
            continue
        else:
            continue
        while targets:
            target = targets.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                targets += target.elts
            elif attr(target) or isinstance(target, ast.Subscript) and state(target.value):
                return True
    return False


def _frame_state_writers():
    src = Path(idfsim.__file__).parent
    writers = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        writers += [f"{path.stem}.{name}"
                    for name, scope in [("<module>", tree), *_scopes(tree)]
                    if _stores_frame_state(scope)]
    return writers


def test_frame_memory_has_one_writer():
    # A configuration bit changes only as the device changes it: by a
    # frame written through the engine's commit loop.
    assert _frame_state_writers() == ["fabric.ConfigEngine.__init__",
                                      "fabric.ConfigEngine.execute"]


@pytest.mark.parametrize("body", [
    "engine.memory[far] = frame",
    "engine.frame_versions.pop(far, None)",
    "engine.memory = {}",
    "engine._mutations += 1",
    "del engine.memory[far]",
    "versions = engine.frame_versions\n    versions[far] = 1",
    "memory = engine.memory\n    memory.update(frames)",
    "frame, engine._mutations = frame, 0",
])
def test_frame_state_writer_check_sees(body):
    tree = ast.parse(f"def write(engine, far, frame, frames):\n    {body}\n")
    [(_, scope)] = _scopes(tree)
    assert _stores_frame_state(scope)


class TestConfigEngine:
    def test_write_then_read_back_exhaustive(self):
        geo = desk_geometry()
        engine = ConfigEngine(geo, ZEDBOARD_IDCODE)
        for i, far_word in enumerate(geo.far_words()):
            frame = _frame(i + 1)
            write_frames(engine, far_word, [frame])
            out, events = _execute(engine, build_readback_sequence(far_word, 1).words)
            assert out[:FRAME_WORDS] == [0] * FRAME_WORDS
            assert out[FRAME_WORDS:] == frame

    def test_readback_is_202_words(self):
        geo = desk_geometry()
        engine = ConfigEngine(geo, ZEDBOARD_IDCODE)
        out, _ = _execute(engine, build_readback_sequence(0, 1).words)
        assert len(out) == 202

    def test_wrong_idcode_leaves_memory_unchanged(self):
        engine = ConfigEngine(desk_geometry(), ZEDBOARD_IDCODE)
        before = snapshot_digest(engine)
        events = write_frames(engine, 0, [_frame(1)], device_id=0x11111111)
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
        _, events = _execute(engine, words)
        assert "fdri_without_wcfg" in events
        assert engine.memory == {}

    def test_fdro_without_rcfg(self):
        engine = ConfigEngine(desk_geometry(), ZEDBOARD_IDCODE)
        words = [
            0xAA995566,
            encode_type1(OpCode.READ, ConfigRegister.FDRO, 0),
            encode_type2(OpCode.READ, 202),
        ]
        out, events = _execute(engine, words)
        assert "fdro_without_rcfg" in events
        assert out == []

    def test_wcfg_and_rcfg_end_at_desync(self):
        engine = ConfigEngine(desk_geometry(), ZEDBOARD_IDCODE)
        cmd = encode_type1(OpCode.WRITE, ConfigRegister.CMD, 1)
        resync = [cmd, CmdCode.DESYNC, SYNC_WORD,
                  encode_type1(OpCode.WRITE, ConfigRegister.IDCODE, 1),
                  ZEDBOARD_IDCODE]
        words = [
            SYNC_WORD, cmd, CmdCode.WCFG, *resync,
            encode_type1(OpCode.WRITE, ConfigRegister.FDRI, 0),
            encode_type2(OpCode.WRITE, 202), *([5] * 202),
            cmd, CmdCode.RCFG, *resync,
            encode_type1(OpCode.READ, ConfigRegister.FDRO, 0),
            encode_type2(OpCode.READ, 202),
        ]
        out, events = _execute(engine, words)
        # the zero-count Type-1 FDRI header is a write of its own
        assert events == ["sync", "desync", "sync", "fdri_without_wcfg",
                          "fdri_without_wcfg", "desync", "sync",
                          "fdro_without_rcfg"]
        assert out == []
        assert engine.memory == {}

    def test_bad_far_event(self):
        engine = ConfigEngine(desk_geometry(), ZEDBOARD_IDCODE)
        words = [
            0xAA995566,
            encode_type1(OpCode.WRITE, ConfigRegister.FAR, 1), 0x00300000,
            encode_type1(OpCode.WRITE, ConfigRegister.FAR, 1), 0x04000000,
        ]
        _, events = _execute(engine, words)
        assert any(e.startswith("bad_far") for e in events)
        assert events == ["sync", "bad_far word=0x00300000",
                          "bad_far word=0x04000000"]
        # A bad FAR leaves the engine with no frame address: a write that
        # follows commits nothing, and a valid FAR write sets one again.
        assert engine.current_far is None
        _, events = _execute(engine, [
            encode_type1(OpCode.WRITE, ConfigRegister.IDCODE, 1), ZEDBOARD_IDCODE,
            encode_type1(OpCode.WRITE, ConfigRegister.CMD, 1), CmdCode.WCFG,
            encode_type1(OpCode.WRITE, ConfigRegister.FDRI, 2 * FRAME_WORDS),
            *_frame(1), *_frame(2), *DESYNC_WRITE])
        assert events == ["far_overrun", "desync"]
        assert engine.memory == {}
        write_frames(engine, 1, [_frame(1)])
        assert _memory_words(engine) == {1: _frame(1)}

    def test_register_table_holds_every_register(self):
        assert len(REGISTERS_BY_ADDR) == len(ConfigRegister)
        for reg in ConfigRegister:
            assert REGISTERS_BY_ADDR[int(reg)] is reg

    def test_unknown_register_skips_its_payload(self):
        engine = ConfigEngine(desk_geometry(), ZEDBOARD_IDCODE)
        unknown = 0x1F
        words = [
            SYNC_WORD,
            # a write's payload is skipped unread, DESYNC command and all
            (0b001 << 29) | (2 << 27) | (unknown << 13) | 2,
            encode_type1(OpCode.WRITE, ConfigRegister.CMD, 1), int(CmdCode.DESYNC),
            # a read has no payload to skip
            (0b001 << 29) | (1 << 27) | (unknown << 13) | 4,
            encode_type1(OpCode.WRITE, ConfigRegister.FAR, 1), 0x00000001,
        ]
        out, events = _execute(engine, words)
        assert out == []
        assert events == ["sync", "ignored_register addr=31",
                          "ignored_register addr=31"]
        assert engine.synced
        assert engine.current_far == 1

    def test_commit_order_matches_enumeration(self):
        geo = desk_geometry()
        engine = ConfigEngine(geo, ZEDBOARD_IDCODE)
        frames = [_frame(i) for i in range(3)]
        write_frames(engine, geo.far_words()[0], frames)
        expected = dict(zip(geo.far_words()[:3], frames))
        assert _memory_words(engine) == expected

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
        _execute(engine, words)
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
        _execute(engine, words)
        assert list(engine.memory) == [0]
        assert all(len(f) == 4 * FRAME_WORDS for f in engine.memory.values())

    def test_desync_leaves_memory_unchanged(self):
        engine = ConfigEngine(desk_geometry(), ZEDBOARD_IDCODE)
        write_frames(engine, 0, [_frame(3)])
        before = snapshot_digest(engine)
        _execute(engine, [0xAA995566,
                        encode_type1(OpCode.WRITE, ConfigRegister.CMD, 1),
                        CmdCode.DESYNC])
        assert snapshot_digest(engine) == before
        assert not engine.synced

    def test_pre_sync_words_ignored(self):
        engine = ConfigEngine(desk_geometry(), ZEDBOARD_IDCODE)
        _, events = _execute(engine, [0x12345678, 0xFFFFFFFF, 0x000000BB])
        assert events == []
        assert not engine.synced

    def test_read_past_device_end_pads_zero(self):
        geo = desk_geometry()
        engine = ConfigEngine(geo, ZEDBOARD_IDCODE)
        last = geo.far_words()[-1]
        write_frames(engine, last, [_frame(8)])
        out, events = _execute(engine, build_readback_sequence(last, 2).words)
        assert "read_overrun" in events
        assert len(out) == 303
        assert out[FRAME_WORDS:2 * FRAME_WORDS] == _frame(8)
        assert out[2 * FRAME_WORDS:] == [0] * FRAME_WORDS

    def test_execute_sync_word_only(self):
        engine = ConfigEngine(desk_geometry(), ZEDBOARD_IDCODE)
        readback, events = _execute(engine, [0xAA995566])
        assert readback == []
        assert events == ["sync"]


class TestSnapshotDigest:
    def test_deterministic(self):
        engine = ConfigEngine(desk_geometry(), ZEDBOARD_IDCODE)
        assert snapshot_digest(engine) == snapshot_digest(engine)

    def test_flip_changes_and_restore_restores(self):
        engine = ConfigEngine(desk_geometry(), ZEDBOARD_IDCODE)
        base = snapshot_digest(engine)
        write_flipped_bit(engine, 0, 1617)
        assert snapshot_digest(engine) != base
        write_flipped_bit(engine, 0, 1617)
        assert snapshot_digest(engine) == base

    def test_distinct_across_desk_single_flips(self):
        # collision-free at desk scale: every single-bit flip of word 0
        # yields a distinct digest
        engine = ConfigEngine(desk_geometry(), ZEDBOARD_IDCODE)
        seen = {snapshot_digest(engine)}
        for bit in range(32):
            write_flipped_bit(engine, 0, bit)
            seen.add(snapshot_digest(engine))
            write_flipped_bit(engine, 0, bit)
        assert len(seen) == 33


def test_frame_dump_round_trip(tmp_path):
    geo = desk_geometry()
    engine = ConfigEngine(geo, ZEDBOARD_IDCODE)
    write_frames(engine, geo.far_words()[2], [_frame(42)])
    path = tmp_path / "frames.bin"
    dump_frames(engine, path)
    frames = load_frame_dump(path, geo)
    assert len(frames) == geo.total_frames
    assert frames[geo.far_words()[2]].tolist() == _frame(42)
    assert frames[geo.far_words()[0]].tolist() == [0] * FRAME_WORDS


def test_frame_dump_of_the_wrong_size(tmp_path):
    geo = desk_geometry()
    path = tmp_path / "frames.bin"
    path.write_bytes(bytes(geo.total_frames * FRAME_BYTES - 4))
    with pytest.raises(ValueError) as info:
        load_frame_dump(path, geo)
    assert str(info.value) == f"{path}: expected 7272 bytes, found 7268"


def test_whole_device_stream_from_a_dump_matches_struct(tmp_path):
    """The z7020like write stream built from a loaded frame dump encodes
    to the bytes struct packs for the same stream as a plain word list."""
    geo = z7020like_geometry()
    fars = geo.far_words()
    image = random.Random(18).randbytes(geo.total_frames * FRAME_BYTES)
    path = tmp_path / "device.frames"
    path.write_bytes(image)
    frames = load_frame_dump(path, geo)
    assert list(frames) == fars
    for i, far in enumerate(fars):
        assert frames[far].tolist() == bytes_to_words(
            image[i * FRAME_BYTES:(i + 1) * FRAME_BYTES])
    t1, t2 = encode_type1, encode_type2
    words = [0xFFFFFFFF, SYNC_WORD, NOOP_WORD,
             t1(OpCode.WRITE, ConfigRegister.IDCODE, 1), ZEDBOARD_IDCODE,
             t1(OpCode.WRITE, ConfigRegister.FAR, 1), fars[0],
             t1(OpCode.WRITE, ConfigRegister.CMD, 1), CmdCode.WCFG,
             t1(OpCode.WRITE, ConfigRegister.FDRI, 0),
             t2(OpCode.WRITE, (len(fars) + 1) * FRAME_WORDS)]
    words += struct.unpack(f">{len(image) // 4}I", image)
    words += [0] * FRAME_WORDS + list(DESYNC_WRITE)
    seq = build_write_frame_sequence(ZEDBOARD_IDCODE, fars[0],
                                     [frames[far] for far in fars])
    assert words_to_bytes(seq.words) == struct.pack(f">{len(words)}I", *words)


class _WordEngine:
    """Word-at-a-time reference for ConfigEngine.execute.

    Each FDRI word enters the frame buffer on its own, and a full buffer
    commits when one more word arrives.  Frame addresses are positions in
    geometry.far_words(), so next_far and is_valid_far are not used.
    """

    REGISTERS = {int(r) for r in ConfigRegister}

    def __init__(self, geometry, device_id):
        self.fars = geometry.far_words()
        self.index = {far: i for i, far in enumerate(self.fars)}
        self.device_id = device_id
        self.synced = self.idcode_ok = self.wcfg = self.rcfg = False
        self.reg = None
        self.pos = 0  # index into fars; len(fars) once past the last frame
        self.buf = []
        self.memory = {}
        self.changed = {}  # FAR words in order of last change

    @property
    def current_far(self):
        return self.fars[self.pos] if self.pos < len(self.fars) else None

    def execute(self, words):
        out, events = [], []
        i = 0
        while i < len(words):
            w = words[i]
            i += 1
            if not self.synced:
                if w == SYNC_WORD:
                    self.synced = True
                    self.idcode_ok = self.wcfg = self.rcfg = False
                    self.reg, self.buf = None, []
                    events.append("sync")
                continue
            if w == NOOP_WORD:
                continue
            kind, op = w >> 29, (w >> 27) & 3
            if kind == 1:
                count, addr = w & 0x7FF, (w >> 13) & 0x3FFF
                if addr not in self.REGISTERS:
                    events.append(f"ignored_register addr={addr}")
                    i += count if op == 2 else 0
                    continue
                self.reg = reg = ConfigRegister(addr)
                name = reg.name.lower()
            elif kind == 2:
                count, reg, name = w & 0x7FFFFFF, self.reg, "type2"
            if kind not in (1, 2) or op not in (1, 2):
                events.append(f"ignored_word word=0x{w:08x}")
            elif op == 2:
                payload = words[i:i + count]
                i += count
                if len(payload) < count:
                    events.append(f"truncated_payload reg={name}")
                self._write(reg, payload, events)
            elif count:
                self._read(reg, count, out, events)
        return out, events

    def _write(self, reg, payload, events):
        if reg is ConfigRegister.FDRI:
            if not self.wcfg:
                events.append("fdri_without_wcfg")
            elif not self.idcode_ok:
                events.append("fdri_rejected_idcode")
            else:
                for w in payload:
                    if len(self.buf) == FRAME_WORDS:
                        self._commit(events)
                    self.buf.append(w)
        elif reg is ConfigRegister.CMD:
            code = payload[0] if payload else None
            if code in (CmdCode.WCFG, CmdCode.RCFG):
                self.wcfg, self.rcfg = code == CmdCode.WCFG, code == CmdCode.RCFG
            elif code == CmdCode.DESYNC:
                self.synced = self.wcfg = self.rcfg = False
                self.buf = []
                events.append("desync")
        elif reg is ConfigRegister.IDCODE:
            got = payload[0] if payload else 0
            self.idcode_ok = bool(payload) and got == self.device_id
            if not self.idcode_ok:
                events.append(f"idcode_mismatch got=0x{got:08x}")
        elif reg is ConfigRegister.FAR:
            if payload and payload[0] in self.index:
                self.pos = self.index[payload[0]]
            elif payload:  # no frame address until a valid FAR
                self.pos = len(self.fars)
                events.append(f"bad_far word=0x{payload[0]:08x}")
        elif reg not in (ConfigRegister.MASK, ConfigRegister.CTL0,
                         ConfigRegister.CRC):
            events.append(f"ignored_write reg={reg.name.lower() if reg else 'none'}")

    def _commit(self, events):
        frame, self.buf = self.buf, []
        if self.pos == len(self.fars):
            events.append("far_overrun")
            return
        far = self.fars[self.pos]
        self.memory[far] = frame
        self.changed.pop(far, None)
        self.changed[far] = None
        self.pos += 1

    def _read(self, reg, count, out, events):
        if reg is not ConfigRegister.FDRO:
            events.append(f"ignored_read reg={reg.name.lower() if reg else 'none'}")
            return
        if not self.rcfg:
            events.append("fdro_without_rcfg")
            return
        frame = [0] * FRAME_WORDS  # the dummy frame ahead of real data
        for k in range(count):
            if k and k % FRAME_WORDS == 0:
                if self.pos == len(self.fars):
                    events.append("read_overrun")
                    out.extend([0] * (count - k))
                    return
                frame = self.memory.get(self.fars[self.pos], [0] * FRAME_WORDS)
                self.pos += 1
            out.append(frame[k % FRAME_WORDS])


# Invalid on both geometries of the differential test: row 24, bit 26, minor
# 127, block type 2.
_BAD_FARS = (0x00300000, 0x04000000, 0x0000007F, 0x01000000)


def _packet(kind, far_words):
    """One packet (or short packet group) of a random configuration stream."""
    t1 = encode_type1
    # FARs whose successor is in another row, half or block type (or past
    # the end) make writes and reads cross the higher FAR carries.
    carries = [f for f, g in zip(far_words, far_words[1:] + [None])
               if g is None or g >> 17 != f >> 17]
    far = st.one_of(st.sampled_from(carries), st.sampled_from(far_words))
    data = st.builds(lambda n, seed: [(seed + k) & 0xFFFF for k in range(n)],
                     st.integers(0, 4).flatmap(lambda frames: st.integers(
                         frames * FRAME_WORDS, frames * FRAME_WORDS + 100)),
                     st.integers(0, 0xFFFF))
    packets = {
        # count 0 included: a zero-count Type-1 header
        "fdri_type1": data.map(
            lambda d: [t1(OpCode.WRITE, ConfigRegister.FDRI, len(d)), *d]),
        "fdri_type2": data.map(
            lambda d: [t1(OpCode.WRITE, ConfigRegister.FDRI, 0),
                       encode_type2(OpCode.WRITE, len(d)), *d]),
        # continues whatever register the last Type-1 header named
        "type2": data.map(lambda d: [encode_type2(OpCode.WRITE, len(d)), *d]),
        "fdro": st.integers(0, 5 * FRAME_WORDS).map(
            lambda n: [t1(OpCode.READ, ConfigRegister.FDRO, 0),
                       encode_type2(OpCode.READ, n)]),
        "far": st.one_of(far, st.sampled_from(_BAD_FARS)).map(
            lambda far_word: [t1(OpCode.WRITE, ConfigRegister.FAR, 1), far_word]),
        # every command code, as the campaign's read-back request sends
        # SHUTDOWN and RCRC and the desync footer GRESTORE and START
        "cmd": st.sampled_from(list(CmdCode)).map(
            lambda code: [t1(OpCode.WRITE, ConfigRegister.CMD, 1), code]),
        # accepted but not modeled: MASK, CTL0 and CRC writes
        "unmodeled": st.tuples(
            st.sampled_from([ConfigRegister.MASK, ConfigRegister.CTL0,
                             ConfigRegister.CRC]),
            st.integers(0, 0xFFFFFFFF)).map(
            lambda rw: [t1(OpCode.WRITE, rw[0], 1), rw[1]]),
        # often mid-frame, with words in the frame buffer
        "desync": st.just([t1(OpCode.WRITE, ConfigRegister.CMD, 1), CmdCode.DESYNC]),
        "idcode": st.sampled_from([ZEDBOARD_IDCODE, 0x11111111]).map(
            lambda got: [t1(OpCode.WRITE, ConfigRegister.IDCODE, 1), got]),
        "sync": st.just([SYNC_WORD]),
        "noop": st.just([NOOP_WORD]),
    }
    if kind not in ("write", "read"):
        return packets[kind]
    # resync and set up a write or a read at a random FAR, then do it
    cmd = CmdCode.WCFG if kind == "write" else CmdCode.RCFG
    setup = far.map(lambda far_word: [
        SYNC_WORD, t1(OpCode.WRITE, ConfigRegister.IDCODE, 1), ZEDBOARD_IDCODE,
        t1(OpCode.WRITE, ConfigRegister.CMD, 1), cmd,
        t1(OpCode.WRITE, ConfigRegister.FAR, 1), far_word])
    first = (st.one_of(packets["fdri_type1"], packets["fdri_type2"])
             if kind == "write" else packets["fdro"])
    return st.tuples(setup, first).map(lambda parts: parts[0] + parts[1])


_EPISODE_KINDS = {
    "write": ["fdri_type1", "fdri_type2", "type2", "type2", "far", "desync",
              "cmd", "unmodeled", "idcode", "fdro", "sync", "noop"],
    "read": ["fdro", "fdro", "far", "cmd", "unmodeled", "type2", "noop"],
}


@st.composite
def _config_calls(draw, far_words):
    """A random stream, cut into the word lists of separate execute calls.

    The stream is a few episodes, each a write or read set-up followed by
    packets that mostly suit it.
    """
    words, cuts = [], {0}
    for _ in range(draw(st.integers(1, 3))):
        episode = draw(st.sampled_from(sorted(_EPISODE_KINDS)))
        kinds = draw(st.lists(st.sampled_from(_EPISODE_KINDS[episode]), max_size=5))
        for kind in [episode] + kinds:
            words.extend(draw(_packet(kind, far_words)))
            if draw(st.booleans()):  # a cut between packets
                cuts.add(len(words))
    # cuts inside packets truncate their payload; the rest parses as packets
    cuts.update(draw(st.lists(st.integers(0, len(words)), max_size=2)))
    cuts = sorted(cuts | {len(words)})
    return [words[a:b] for a, b in zip(cuts, cuts[1:])]


def _assert_engines_agree(geo, calls):
    engine = ConfigEngine(geo, ZEDBOARD_IDCODE)
    ref = _WordEngine(geo, ZEDBOARD_IDCODE)
    for words in calls:
        assert _execute(engine, words) == ref.execute(words)
        assert bytes_to_words(engine.frame_buffer) == ref.buf
        assert engine.current_far == ref.current_far
    assert _memory_words(engine) == ref.memory
    assert list(engine.frame_versions) == list(ref.changed)
    return ref


@pytest.mark.parametrize("geo_name", ["desk", "twoblock"])
def test_execute_matches_word_at_a_time_reference(geo_name, twoblock_geometry):
    geo = desk_geometry() if geo_name == "desk" else twoblock_geometry
    fars = geo.far_words()
    t1, t2 = encode_type1, encode_type2
    setup = [SYNC_WORD, t1(OpCode.WRITE, ConfigRegister.IDCODE, 1), ZEDBOARD_IDCODE,
             t1(OpCode.WRITE, ConfigRegister.FAR, 1), fars[-2],
             t1(OpCode.WRITE, ConfigRegister.CMD, 1)]
    # Every case at least once: a zero-count Type-1 header, a frame split
    # across calls and packets, a write and a read past the last FAR, and
    # a DESYNC mid-frame.
    ref = _assert_engines_agree(geo, [
        [*setup, CmdCode.WCFG, t1(OpCode.WRITE, ConfigRegister.FDRI, 0),
         t2(OpCode.WRITE, 3 * FRAME_WORDS + 50), *range(3 * FRAME_WORDS + 50)],
        [t1(OpCode.WRITE, ConfigRegister.FDRI, 30), *range(30),
         t1(OpCode.WRITE, ConfigRegister.CMD, 1), CmdCode.DESYNC],
        [*setup, CmdCode.RCFG, t1(OpCode.READ, ConfigRegister.FDRO, 0),
         t2(OpCode.READ, 4 * FRAME_WORDS)],
    ])
    assert list(ref.memory) == fars[-2:]

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(_config_calls(fars))
    def check(calls):
        _assert_engines_agree(geo, calls)

    check()


@pytest.mark.parametrize("geo_name", ["twoblock", "wide"])
def test_far_stepping_matches_word_at_a_time_reference(geo_name, twoblock_geometry,
                                                       monkeypatch):
    # "wide" has 128-minor columns, where minor + 1 at the last minor would
    # spill into the column field, and ends on one.
    geo = twoblock_geometry if geo_name == "twoblock" else DeviceGeometry(
        "wide", 1, [("CLB", 128), ("DSP", 2), ("BRAM", 128)])
    fars = geo.far_words()
    assert len(fars) % 9  # the last 9-frame read-back runs past the last FAR
    column_ends = {f for f, g in zip(fars, fars[1:] + [None])
                   if g is None or g >> 7 != f >> 7}
    calls = []
    next_far = geo.next_far

    def counted_next_far(far_word):
        calls.append(far_word)
        return next_far(far_word)

    monkeypatch.setattr(geo, "next_far", counted_next_far)
    engine = ConfigEngine(geo, ZEDBOARD_IDCODE)
    ref = _WordEngine(geo, ZEDBOARD_IDCODE)
    # The whole device plus two frames past its end, cut mid-frame into two
    # calls; then a 5-frame rewrite that crosses a column carry.
    image = [_frame(k) for k in range(len(fars) + 2)]
    words = build_write_frame_sequence(ZEDBOARD_IDCODE, fars[0], image).words.tolist()
    cut = len(words) // 2 + 17
    rest = words[cut:]
    rest[:0] = [encode_type1(OpCode.WRITE, ConfigRegister.FDRI, 0),
                encode_type2(OpCode.WRITE, len(rest) - 2)]
    start = fars.index(((fars[0] >> 7) + 1) << 7) - 3
    streams = [words[:cut], rest, build_write_frame_sequence(
        ZEDBOARD_IDCODE, fars[start], [_frame(-k) for k in range(5)]).words]
    streams += [build_readback_sequence(fars[k], 9).words.tolist() + list(DESYNC_WRITE)
                for k in range(0, len(fars), 9)]
    events = []
    for words in streams:
        got = _execute(engine, words)
        assert got == ref.execute(words)
        events += got[1]
        assert engine.current_far == ref.current_far
    assert _memory_words(engine) == ref.memory
    assert list(engine.frame_versions) == list(ref.changed)
    assert events.count("far_overrun") == 2
    assert events.count("read_overrun") == 1
    # next_far runs only at a carry: at each column's last FAR passed, by
    # the whole-device write, the rewrite and the read-backs
    rewrite_ends = column_ends.intersection(fars[start:start + 5])
    assert len(rewrite_ends) == 2
    assert sorted(calls) == sorted([*column_ends, *rewrite_ends, *column_ends])


def test_noop_runs_match_word_at_a_time_reference():
    geo = desk_geometry()
    fars = geo.far_words()
    t1, t2 = encode_type1, encode_type2
    head = [SYNC_WORD, t1(OpCode.WRITE, ConfigRegister.IDCODE, 1), ZEDBOARD_IDCODE,
            t1(OpCode.WRITE, ConfigRegister.CMD, 1), CmdCode.WCFG,
            t1(OpCode.WRITE, ConfigRegister.FAR, 1), fars[1]]
    fdri0 = t1(OpCode.WRITE, ConfigRegister.FDRI, 0)  # a zero-count header
    body = [t2(OpCode.WRITE, 2 * FRAME_WORDS), *range(2 * FRAME_WORDS)]
    for k in range(1, 41):
        noops = [NOOP_WORD] * k
        cut = (k + 1) // 2
        for calls in (
            [noops + head + [fdri0] + body],  # before sync
            [head[:3] + noops + head[3:] + noops + [fdri0] + body],  # between packets
            [head + [fdri0] + noops + body],  # straight after a zero-count header
            [head + [fdri0] + body + noops],  # at the end of a stream
            # before a word whose leading bytes are zero, as NOOP's trailing ones are
            [head + noops + [0, 0x00000020] + [fdri0] + body],
            [head + noops[:cut], noops[cut:] + [fdri0] + body],  # split across calls
            # inside a payload NOOP words are frame data, not skipped
            [head + [fdri0, t2(OpCode.WRITE, FRAME_WORDS + k), *noops,
                     *range(FRAME_WORDS)]],
        ):
            _assert_engines_agree(geo, calls)
    # The campaign's 58-word read-back request after a one-frame write.
    write = build_write_frame_sequence(ZEDBOARD_IDCODE, fars[1], [_frame(3)]).words
    request = build_readback_sequence(fars[1], 1).words.tolist() + list(DESYNC_WRITE)
    assert len(request) == 58
    ref = _assert_engines_agree(geo, [write, request, request])
    assert ref.memory == {fars[1]: _frame(3)}


def _unaligned_sync(offset):
    """Two words holding the SYNC bytes at byte `offset` (1-3) of the first."""
    data = bytes(offset) + SYNC_WORD.to_bytes(4, "big") + bytes(4 - offset)
    return bytes_to_words(data)


def test_header_dispatch_matches_word_at_a_time_reference():
    geo = desk_geometry()
    fars = geo.far_words()
    t2 = encode_type2

    def t1(op, reg, count, reserved=0):
        return encode_type1(op, reg, count) | reserved

    def write(reserved=0):
        return [t1(OpCode.WRITE, ConfigRegister.IDCODE, 1, reserved), ZEDBOARD_IDCODE,
                t1(OpCode.WRITE, ConfigRegister.CMD, 1, reserved), CmdCode.WCFG,
                t1(OpCode.WRITE, ConfigRegister.FAR, 1, reserved), fars[2],
                t1(OpCode.WRITE, ConfigRegister.FDRI, 0, reserved),
                t2(OpCode.WRITE, 2 * FRAME_WORDS), *range(2 * FRAME_WORDS)]

    def read(reserved=0):
        return [t1(OpCode.WRITE, ConfigRegister.CMD, 1, reserved), CmdCode.RCFG,
                t1(OpCode.WRITE, ConfigRegister.FAR, 1, reserved), fars[2],
                t1(OpCode.READ, ConfigRegister.FDRO, 0, reserved),
                t2(OpCode.READ, 2 * FRAME_WORDS)]

    def header(kind, op, addr, count):
        return (kind << 29) | (op << 27) | (addr << 13) | count

    # The SYNC bytes at byte offsets 1-3 do not sync; the aligned SYNC does.
    for offset in (1, 2, 3):
        ref = _assert_engines_agree(geo, [
            [*_unaligned_sync(offset), *write(), SYNC_WORD, *write(), *read()]])
        assert list(ref.memory) == [fars[2]]
        # with only the unaligned pattern the whole stream is skipped
        ref = _assert_engines_agree(geo, [
            [NOOP_WORD, *_unaligned_sync(offset), *write()],
            [*_unaligned_sync(offset)[1:], *write(), *read()]])
        assert not ref.synced and not ref.memory
    # No aligned sync at all, in one call and with the pattern split
    # across calls.
    ref = _assert_engines_agree(geo, [[NOOP_WORD, *write(), *read()],
                                      [0xAA99], [0x5566AA99, 0x55660000], write()])
    assert not ref.synced and not ref.memory
    # Reserved bits 11-12 of a Type-1 header are not part of its count.
    for reserved in (1 << 11, 1 << 12, 3 << 11):
        ref = _assert_engines_agree(geo, [[SYNC_WORD, *write(reserved), *read(reserved)]])
        assert list(ref.memory) == [fars[2]]
    # A NOOP with a reserved bit set is an op-0 header on CRC, not a NOOP.
    _assert_engines_agree(geo, [[SYNC_WORD, NOOP_WORD | 1 << 11, t2(OpCode.WRITE, 1), 7,
                                 *write()]])
    # Unknown registers with every op, payload included, between packets.
    unknown = [w for addr in (7, 8, 11, 13, 0x3FFF) for op in range(4)
               for w in (header(1, op, addr, 2), 0x11, 0x22)]
    ref = _assert_engines_agree(geo, [[SYNC_WORD, *unknown, *write(), *unknown, *read()]])
    assert list(ref.memory) == [fars[2]]
    # Op 0 and op 3 on known registers name the register a Type-2 header
    # continues, and do nothing else.
    odd = [header(1, op, int(reg), count)
           for op in (0, 3) for reg in ConfigRegister for count in (0, 1, 5)]
    _assert_engines_agree(geo, [[SYNC_WORD, *odd, *write(), *read()]])
    for reg in (ConfigRegister.FDRO, ConfigRegister.FDRI, ConfigRegister.CRC):
        for op in (0, 3):
            _assert_engines_agree(geo, [[SYNC_WORD, *write()[:6], header(1, op, int(reg), 0),
                                         t2(OpCode.WRITE, 3), 1, 2, 3,
                                         t2(OpCode.READ, FRAME_WORDS)]])
    # A Type-2 header before any Type-1, with each op.
    for op in range(4):
        _assert_engines_agree(geo, [[SYNC_WORD, header(2, op, 0, 3), 1, 2, 3, *write()],
                                    [SYNC_WORD, header(2, op, 0, 0), *read()]])


def test_frames_are_immutable_bytes():
    geo = desk_geometry()
    fars = geo.far_words()
    engine = ConfigEngine(geo, ZEDBOARD_IDCODE)
    frames = [_frame(i) for i in range(3)]
    words = build_write_frame_sequence(ZEDBOARD_IDCODE, fars[0], frames).words.tolist()
    # Cut 40 words into the first frame and resume FDRI in a second call:
    # the first frame commits from the frame buffer, the others straight
    # from slices of the second call's payload.
    cut = len(words) - 2 - (len(frames) + 1) * FRAME_WORDS + 40
    rest = words[cut:]
    rest[:0] = [encode_type1(OpCode.WRITE, ConfigRegister.FDRI, 0),
                encode_type2(OpCode.WRITE, len(rest) - 2)]
    streams = [bytearray(words_to_bytes(words[:cut])),
               bytearray(words_to_bytes(rest))]
    engine.execute(streams[0])
    assert type(engine.frame_buffer) is bytes
    assert len(engine.frame_buffer) == 4 * 40
    engine.execute(memoryview(streams[1]))
    for data in streams:
        data[:] = b"\xff" * len(data)
    assert _memory_words(engine) == dict(zip(fars, frames))
    assert {type(f) for f in engine.memory.values()} == {bytes}
    written = engine.memory.get(fars[1], ZERO_FRAME)
    unwritten = engine.memory.get(fars[5], ZERO_FRAME)
    write_flipped_bit(engine, fars[1], 0)
    write_flipped_bit(engine, fars[5], 0)
    assert written == words_to_bytes(frames[1])
    assert unwritten == bytes(4 * FRAME_WORDS)
    assert bytes_to_words(engine.memory[fars[1]])[0] == frames[1][0] ^ 1
    assert bytes_to_words(engine.memory[fars[5]])[0] == 1
    with pytest.raises(TypeError):
        engine.execute([SYNC_WORD])  # a word list is not a byte stream


def test_whole_device_round_trip():
    geo = z7020like_geometry()
    fars = geo.far_words()
    engine = ConfigEngine(geo, ZEDBOARD_IDCODE)
    frames = [[(i * 2654435761 + j) & 0xFFFFFFFF for j in range(FRAME_WORDS)]
              for i in range(len(fars))]
    words = build_write_frame_sequence(ZEDBOARD_IDCODE, fars[0], frames).words
    start = time.perf_counter()
    _, events = _execute(engine, words)
    elapsed = time.perf_counter() - start
    assert events == ["sync", "desync"]
    assert elapsed < 1.0, f"full-device write took {elapsed:.2f} s"
    # Pinned: the digest hashes the same frame bytes as before frames
    # became bytes.
    assert snapshot_digest(engine) == (
        "0d3eaa70bd8c502a651c814adcdd3fb0cac733a5dd56a9bc20698e4427b68fa4")
    for k in range(0, len(fars), 9):
        n = min(9, len(fars) - k)
        out, _ = _execute(engine, build_readback_sequence(fars[k], n).words)
        assert out[:FRAME_WORDS] == [0] * FRAME_WORDS
        assert out[FRAME_WORDS:] == [w for f in frames[k:k + n] for w in f]
    # One frame more than the device has left: the flush commits past the end.
    events = write_frames(engine, fars[-1], [_frame(1), _frame(2)])
    assert events.count("far_overrun") == 1
    assert bytes_to_words(engine.memory[fars[-1]]) == _frame(1)
