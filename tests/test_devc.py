import struct
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from idfsim.devc import (
    DescriptorError,
    Device,
    Dram,
    Interface,
    LockedError,
    PCAP_CLK_HZ,
    PCAP_MAX_BYTES_PER_SEC,
    PL_ADDR,
    SAFE_DIVISOR,
    SequencingError,
    TransferError,
    UNLOCK_KEY,
    boot_device,
    render_event,
)
from idfsim.fabric import ConfigEngine, FRAME_WORDS, desk_geometry, snapshot_digest
from idfsim.packets import (
    CmdCode,
    ConfigRegister,
    OpCode,
    SYNC_WORD,
    ZEDBOARD_IDCODE,
    build_desync_footer,
    build_readback_sequence,
    build_write_frame_sequence,
    encode_type1,
    encode_type2,
    words_to_bytes,
)

REQ = 0x00280000
DST = 0x00300000


def _stage_write(dev, far_word, frame):
    seq = build_write_frame_sequence(ZEDBOARD_IDCODE, far_word, [frame])
    dev.dram.write_words(REQ, seq.words)
    return len(seq.words)


def _stage_readback(dev, far_word, n_frames):
    seq = build_readback_sequence(far_word, n_frames)
    dev.dram.write_words(REQ, seq.words)
    return len(seq.words)


def _ready_device():
    dev = boot_device()
    dev.interface_acquire(Interface.PCAP)
    dev.drain_events()
    return dev


def _text(dev):
    """The device's drained event records, rendered as log lines."""
    return [render_event(record) for record in dev.drain_events()]


class TestLockAndInit:
    def test_unlock_with_key(self):
        dev = Device()
        dev.unlock(UNLOCK_KEY)
        assert not dev.locked

    def test_wrong_key_keeps_locked(self):
        dev = Device()
        with pytest.raises(LockedError):
            dev.unlock(0)
        assert dev.locked

    def test_register_write_before_unlock_has_no_effect(self):
        dev = Device()
        dev.dma_enqueue(0x00200000, PL_ADDR, 10, 10)
        dev.write_reg("ctrl_pcap_pr", 1)
        assert not dev.dma_queue
        assert not dev.ctrl.pcap_pr
        assert _text(dev) == [
            f"REGWRITE DROPPED LOCKED {name}"
            for name in ("dma_src", "dma_dst", "dma_src_len", "dma_dst_len",
                         "ctrl_pcap_pr")]

    def test_full_bringup(self):
        dev = Device()
        dev.unlock(UNLOCK_KEY)
        dev.write_reg("ctrl_pcap_pr", 1)
        dev.write_reg("ctrl_pcap_mode", 1)
        dev.pl_initialize()
        assert dev.cfg_done

    def test_initialize_requires_unlock(self):
        dev = Device()
        with pytest.raises(LockedError):
            dev.pl_initialize()

    def test_pcap_not_selected_unreachable(self):
        dev = Device()
        dev.unlock(UNLOCK_KEY)
        dev.write_reg("ctrl_pcap_pr", 0)
        dev.write_reg("ctrl_pcap_mode", 1)
        with pytest.raises(SequencingError):
            dev.pl_initialize()
        assert not dev.cfg_done
        # the failed call changed nothing: setting the flag lets a retry pass
        dev.write_reg("ctrl_pcap_pr", 1)
        dev.pl_initialize()
        assert dev.cfg_done

    def test_double_initialize_is_sequencing_error(self):
        dev = boot_device()
        with pytest.raises(SequencingError):
            dev.pl_initialize()

    def test_enqueue_before_cfg_done(self):
        dev = Device()
        dev.unlock(UNLOCK_KEY)
        with pytest.raises(SequencingError, match="not initialized"):
            dev.dma_enqueue(0x00200000, PL_ADDR, 443, 443)


class TestDmaDescriptor:
    def test_ps2pl_direction(self):
        dev = _ready_device()
        dev.dma_enqueue(0x00200000, PL_ADDR, 443, 443)
        assert dev.dma_queue[0].direction == "ps2pl"

    def test_pl2ps_direction(self):
        dev = _ready_device()
        dev.dma_enqueue(PL_ADDR, 0x00300000, 202, 202)
        assert dev.dma_queue[0].direction == "pl2ps"

    def test_neither_address_is_pl(self):
        dev = _ready_device()
        with pytest.raises(DescriptorError):
            dev.dma_enqueue(0x00200000, 0x00300000, 1, 1)

    def test_both_addresses_are_pl(self):
        dev = _ready_device()
        with pytest.raises(DescriptorError):
            dev.dma_enqueue(PL_ADDR, PL_ADDR, 1, 1)

    def test_only_a_valid_descriptor_is_queued(self):
        dev = _ready_device()
        with pytest.raises(DescriptorError):
            dev.dma_enqueue(0x00200000, 0x00300000, 10, 10)
        assert not dev.dma_queue
        assert _text(dev) == []
        dev.dma_enqueue(0x1_0020_0000, PL_ADDR, 10, 10)  # masked to 32 bits
        assert len(dev.dma_queue) == 1
        assert dev.dma_queue[0].src == 0x00200000
        assert _text(dev) == [
            "DMA QUEUED PS2PL SRC=0x00200000 DST=0xffffffff LEN=10"]

    def test_process_with_an_empty_queue(self):
        dev = _ready_device()
        with pytest.raises(DescriptorError, match="^no DMA descriptor queued$"):
            dev.dma_process()
        assert _text(dev) == []
        assert (dev.words_moved, dev.sim_seconds) == (0, 0.0)

    def test_negative_length_is_rejected(self):
        dev = _ready_device()
        for lengths in ((-5, -5), (-5, 5), (5, -5)):
            with pytest.raises(DescriptorError, match="negative"):
                dev.dma_enqueue(0x1000, PL_ADDR, *lengths)
        assert not dev.dma_queue
        assert _text(dev) == []
        assert (dev.words_moved, dev.sim_seconds) == (0, 0.0)

    def test_a_span_past_the_address_space_is_rejected(self):
        dev = _ready_device()
        for src, dst in ((0xFFFFFFF0, PL_ADDR), (PL_ADDR, 0xFFFFFFF0)):
            with pytest.raises(DescriptorError, match="leave the 32-bit"):
                dev.dma_enqueue(src, dst, 5, 5)  # 20 bytes, 4 past the top
        assert not dev.dma_queue
        assert _text(dev) == []
        dev.dma_enqueue(0xFFFFFFEC, PL_ADDR, 5, 5)  # ends at the top
        dev.dma_enqueue(PL_ADDR, 0xFFFFFFEC, 5, 5)
        assert len(dev.dma_queue) == 2

    def test_descriptor_registers_are_not_writable(self):
        dev = _ready_device()
        with pytest.raises(ValueError, match="unknown register"):
            dev.write_reg("dma_src", 0x00200000)


class TestDmaTransfers:
    def test_write_then_read_frame(self):
        dev = _ready_device()
        frame = list(range(1000, 1000 + FRAME_WORDS))
        n = _stage_write(dev, 0, frame)
        dev.dma_enqueue(REQ, PL_ADDR, n, n)
        dev.dma_process()
        assert _text(dev)[-1] == f"DMA PS2PL DONE WORDS={n}"
        dev.interface_acquire(Interface.PCAP)  # desync released ownership
        n = _stage_readback(dev, 0, 1)
        dev.dma_enqueue(REQ, PL_ADDR, n, n)
        dev.dma_process()
        dev.dma_enqueue(PL_ADDR, DST, 202, 202)
        dev.dma_process()
        words = dev.dram.read_words(DST, 202)
        assert words[:FRAME_WORDS] == [0] * FRAME_WORDS
        assert words[FRAME_WORDS:] == frame

    def test_a_ps2pl_transfer_hands_the_engine_one_bytes_slice(self, monkeypatch):
        # `execute` copies any stream that is not `bytes`: the slice that
        # DRAM returns is the one copy between DRAM and the engine.
        dev = _ready_device()
        n = _stage_write(dev, 0, [5] * FRAME_WORDS)
        streams = []
        execute = dev.engine.execute

        def spy(data):
            streams.append(data)
            return execute(data)

        monkeypatch.setattr(dev.engine, "execute", spy)
        dev.dma_enqueue(REQ, PL_ADDR, n, n)
        dev.dma_process()
        assert [type(data) for data in streams] == [bytes]
        assert streams[0] == dev.dram.read_bytes(REQ, 4 * n)

    def test_width_mismatch(self):
        dev = _ready_device()
        _stage_readback(dev, 0, 1)
        dev.dma_enqueue(PL_ADDR, DST, 202, 303)
        with pytest.raises(TransferError) as excinfo:
            dev.dma_process()
        assert excinfo.value.reason == "width"

    def test_not_owner(self):
        dev = boot_device()
        dev.drain_events()
        n = _stage_readback(dev, 0, 1)
        dev.dma_enqueue(REQ, PL_ADDR, n, n)
        with pytest.raises(TransferError) as excinfo:
            dev.dma_process()
        assert excinfo.value.reason == "not-owner"

    def _request_frames(self, dev, n_frames):
        dev.set_pcap_clock_divisor(SAFE_DIVISOR)
        n = _stage_readback(dev, 0, n_frames)
        dev.dma_enqueue(REQ, PL_ADDR, n, n)
        dev.dma_process()

    def test_ten_frame_read_succeeds(self):
        dev = _ready_device()
        self._request_frames(dev, 9)  # 9 real + 1 dummy = 1010 words
        dev.dma_enqueue(PL_ADDR, DST, 1010, 1010)
        dev.dma_process()
        assert dev.dram.read_words(DST, 1010) == [0] * 1010

    def test_eleven_frame_read_is_boundary_error(self):
        dev = _ready_device()
        self._request_frames(dev, 10)  # 1111 words
        before = snapshot_digest(dev.engine)
        dst_before = dev.dram.read_bytes(DST, 1111 * 4)
        dev.dma_enqueue(PL_ADDR, DST, 1111, 1111)
        with pytest.raises(TransferError) as excinfo:
            dev.dma_process()
        assert excinfo.value.reason == "boundary"
        assert _text(dev)[-1] == "DMA ERROR BOUNDARY LEN=1111"
        assert snapshot_digest(dev.engine) == before
        assert dev.dram.read_bytes(DST, 1111 * 4) == dst_before

    def test_multi_frame_overflow_at_full_clock(self):
        dev = _ready_device()
        self._request_frames(dev, 2)  # 303 words > 256-word FIFO
        dev.set_pcap_clock_divisor(1)
        dev.dma_enqueue(PL_ADDR, DST, 303, 303)
        with pytest.raises(TransferError) as excinfo:
            dev.dma_process()
        assert excinfo.value.reason == "overflow"

    def test_multi_frame_succeeds_at_quarter_clock(self):
        dev = _ready_device()
        self._request_frames(dev, 2)
        dev.dma_enqueue(PL_ADDR, DST, 303, 303)
        dev.dma_process()

    def test_single_frame_read_never_overflows(self):
        dev = _ready_device()
        n = _stage_readback(dev, 0, 1)
        dev.dma_enqueue(REQ, PL_ADDR, n, n)
        dev.dma_process()
        dev.dma_enqueue(PL_ADDR, DST, 202, 202)
        dev.dma_process()  # 808 bytes fit the FIFO even at divisor 1

    def test_readback_cannot_be_split(self):
        dev = _ready_device()
        self._request_frames(dev, 3)  # 404 words pending
        dev.dma_enqueue(PL_ADDR, DST, 202, 202)
        with pytest.raises(TransferError) as excinfo:
            dev.dma_process()
        assert excinfo.value.reason == "width"

    def test_error_transfers_nothing(self):
        dev = _ready_device()
        frame = [7] * FRAME_WORDS
        n = _stage_write(dev, 0, frame)
        before = snapshot_digest(dev.engine)
        dev.dma_enqueue(REQ, PL_ADDR, n, n + 1)  # width mismatch
        with pytest.raises(TransferError):
            dev.dma_process()
        assert snapshot_digest(dev.engine) == before


# The template is a bare write sequence ending in DESYNC; the desync
# footer's MASK/CTL0 writes reach the engine only after a sync word.
_UNMODELED_WRITE_STREAMS = pytest.mark.parametrize("words", [
    build_write_frame_sequence(ZEDBOARD_IDCODE, 0, [[0] * FRAME_WORDS]).words,
    [SYNC_WORD, encode_type1(OpCode.WRITE, ConfigRegister.CRC, 1), 0]
    + build_desync_footer().words.tolist(),
], ids=["template", "synced_footer"])


class TestUnmodeledRegisters:
    """MASK, CTL0 and CRC writes are accepted without an event or error."""

    @_UNMODELED_WRITE_STREAMS
    def test_engine_reports_no_ignored_write(self, words):
        engine = ConfigEngine(desk_geometry(), ZEDBOARD_IDCODE)
        _readback, events = engine.execute(words_to_bytes(words))
        assert events == ["sync", "desync"]

    @_UNMODELED_WRITE_STREAMS
    def test_device_sets_no_cfg_error(self, words):
        dev = _ready_device()
        dev.dram.write_words(REQ, words)
        dev.dma_enqueue(REQ, PL_ADDR, len(words), len(words))
        dev.dma_process()
        assert not dev.cfg_error


def _run(dev, words, src=REQ):
    dev.dram.write_words(src, words)
    dev.dma_enqueue(src, PL_ADDR, len(words), len(words))
    dev.dma_process()


def _fails(dev, src, dst, src_len, dst_len):
    dev.dma_enqueue(src, dst, src_len, dst_len)
    with pytest.raises(TransferError):
        dev.dma_process()


def _not_initialized(dev):
    dev.dma_enqueue(REQ, PL_ADDR, 3, 3)
    dev.cfg_done = False  # PL configuration lost after the descriptor queued
    with pytest.raises(TransferError):
        dev.dma_process()


def _request(dev, n_frames):
    dev.set_pcap_clock_divisor(SAFE_DIVISOR)
    _run(dev, build_readback_sequence(0, n_frames).words)
    dev.set_pcap_clock_divisor(1)
    dev.drain_events()


def _split_read(dev):
    _request(dev, 3)
    dev.set_pcap_clock_divisor(SAFE_DIVISOR)
    _fails(dev, PL_ADDR, DST, 202, 202)


def _boundary(dev):
    _request(dev, 10)
    _fails(dev, PL_ADDR, DST, 1111, 1111)


def _overflow(dev):
    _request(dev, 2)
    _fails(dev, PL_ADDR, DST, 303, 303)


def _t1(reg, *payload):
    return [encode_type1(OpCode.WRITE, reg, len(payload)), *payload]


_FDRO_202 = [encode_type1(OpCode.READ, ConfigRegister.FDRO, 0),
             encode_type2(OpCode.READ, 202)]


def _unread_readback(dev):
    _run(dev, [SYNC_WORD, *_t1(ConfigRegister.CMD, CmdCode.RCFG),
               *_t1(ConfigRegister.FAR, 0), *_FDRO_202])
    _run(dev, _FDRO_202)
    dev.dma_enqueue(PL_ADDR, DST, 202, 202)
    dev.dma_process()


# Every Device event site, each run on a fresh device in the named state
# ("new", "unlocked", "booted", or "ready": booted with PCAP owning) whose
# bring-up events are drained first.  The expected text is pinned.
_EVENT_SITES = [
    pytest.param("new", lambda d: pytest.raises(LockedError, d.unlock, 0xBEEF),
                 ["UNLOCK REJECTED KEY=0x0000beef"], id="unlock_rejected"),
    pytest.param("new", lambda d: d.unlock(UNLOCK_KEY), ["UNLOCK OK"],
                 id="unlock_ok"),
    pytest.param("new", lambda d: d.write_reg("ctrl_pcap_mode", 1),
                 ["REGWRITE DROPPED LOCKED ctrl_pcap_mode"], id="regwrite_dropped"),
    pytest.param("new", lambda d: d.dma_enqueue(REQ, PL_ADDR, 10, 10),
                 ["REGWRITE DROPPED LOCKED dma_src", "REGWRITE DROPPED LOCKED dma_dst",
                  "REGWRITE DROPPED LOCKED dma_src_len",
                  "REGWRITE DROPPED LOCKED dma_dst_len"], id="dma_regwrite_dropped"),
    pytest.param("unlocked", lambda d: d.pl_initialize(), ["PL INIT CFG_DONE"],
                 id="pl_init"),
    pytest.param("booted", lambda d: d.dma_enqueue(0x00200000, PL_ADDR, 215, 215),
                 ["DMA QUEUED PS2PL SRC=0x00200000 DST=0xffffffff LEN=215"],
                 id="dma_queued_ps2pl"),
    pytest.param("booted", lambda d: d.dma_enqueue(PL_ADDR, DST, 202, 202),
                 ["DMA QUEUED PL2PS SRC=0xffffffff DST=0x00300000 LEN=202"],
                 id="dma_queued_pl2ps"),
    pytest.param("ready", _not_initialized,
                 ["DMA QUEUED PS2PL SRC=0x00280000 DST=0xffffffff LEN=3",
                  "DMA ERROR NOT-INITIALIZED LEN=3"], id="dma_error_not_initialized"),
    pytest.param("booted", lambda d: _fails(d, REQ, PL_ADDR, 3, 3),
                 ["DMA QUEUED PS2PL SRC=0x00280000 DST=0xffffffff LEN=3",
                  "DMA ERROR NOT-OWNER LEN=3"], id="dma_error_not_owner"),
    pytest.param("ready", lambda d: _fails(d, REQ, PL_ADDR, 3, 4),
                 ["DMA QUEUED PS2PL SRC=0x00280000 DST=0xffffffff LEN=4",
                  "DMA ERROR WIDTH LEN=4"], id="dma_error_width"),
    pytest.param("ready", lambda d: _fails(d, PL_ADDR, DST, 202, 202),
                 ["DMA QUEUED PL2PS SRC=0xffffffff DST=0x00300000 LEN=202",
                  "DMA ERROR WIDTH LEN=202"], id="dma_error_nothing_pending"),
    pytest.param("ready", _split_read,
                 ["DMA QUEUED PL2PS SRC=0xffffffff DST=0x00300000 LEN=202",
                  "DMA ERROR WIDTH LEN=202"], id="dma_error_split"),
    pytest.param("ready", _boundary,
                 ["DMA QUEUED PL2PS SRC=0xffffffff DST=0x00300000 LEN=1111",
                  "DMA ERROR BOUNDARY LEN=1111"], id="dma_error_boundary"),
    pytest.param("ready", _overflow,
                 ["DMA QUEUED PL2PS SRC=0xffffffff DST=0x00300000 LEN=303",
                  "DMA ERROR OVERFLOW LEN=303"], id="dma_error_overflow"),
    pytest.param("ready", lambda d: _run(d, [SYNC_WORD, 0x60000000]),
                 ["DMA QUEUED PS2PL SRC=0x00280000 DST=0xffffffff LEN=2",
                  "ENGINE sync", "ENGINE ignored_word word=0x60000000",
                  "DMA PS2PL DONE WORDS=2"], id="engine_ignored_word"),
    pytest.param("ready", lambda d: _run(d, [SYNC_WORD,
                                             *_t1(ConfigRegister.FAR, 0x04000000)]),
                 ["DMA QUEUED PS2PL SRC=0x00280000 DST=0xffffffff LEN=3",
                  "ENGINE sync", "ENGINE bad_far word=0x04000000",
                  "DMA PS2PL DONE WORDS=3"], id="engine_bad_far"),
    pytest.param("ready", lambda d: _run(d, [SYNC_WORD, encode_type1(
                     OpCode.WRITE, ConfigRegister.FAR, 3), 0]),
                 ["DMA QUEUED PS2PL SRC=0x00280000 DST=0xffffffff LEN=3",
                  "ENGINE sync", "ENGINE truncated_payload reg=far",
                  "DMA PS2PL DONE WORDS=3"], id="engine_truncated_payload"),
    pytest.param("ready", _unread_readback,
                 ["DMA QUEUED PS2PL SRC=0x00280000 DST=0xffffffff LEN=7",
                  "ENGINE sync", "DMA PS2PL DONE WORDS=7",
                  "DMA QUEUED PS2PL SRC=0x00280000 DST=0xffffffff LEN=2",
                  "READBACK DROPPED UNREAD", "DMA PS2PL DONE WORDS=2",
                  "DMA QUEUED PL2PS SRC=0xffffffff DST=0x00300000 LEN=202",
                  "DMA PL2PS DONE WORDS=202"], id="readback_dropped_unread"),
    pytest.param("booted", lambda d: d.interface_acquire(Interface.PCAP),
                 ["ACQUIRE PCAP GRANTED"], id="acquire_granted"),
    pytest.param("ready", lambda d: d.interface_acquire(Interface.JTAG),
                 ["ACQUIRE JTAG PREEMPTS PCAP"], id="acquire_preempts"),
    pytest.param("ready", lambda d: d.interface_acquire(Interface.ICAP),
                 ["ACQUIRE ICAP IGNORED OWNER=PCAP"], id="acquire_ignored"),
    pytest.param("ready", lambda d: d.interface_acquire(Interface.RBCRC),
                 ["ACQUIRE RBCRC IGNORED OWNER=PCAP"], id="acquire_rbcrc_ignored"),
    pytest.param("ready", lambda d: _run(d, [SYNC_WORD,
                                             *_t1(ConfigRegister.CMD, CmdCode.DESYNC)]),
                 ["DMA QUEUED PS2PL SRC=0x00280000 DST=0xffffffff LEN=3",
                  "ENGINE sync", "ENGINE desync", "DESYNC RELEASE PCAP",
                  "DMA PS2PL DONE WORDS=3"], id="desync_release"),
]


@pytest.mark.parametrize("state, act, expected", _EVENT_SITES)
def test_event_text_at_every_site(state, act, expected):
    if state in ("new", "unlocked"):
        dev = Device()
        if state == "unlocked":
            dev.unlock(UNLOCK_KEY)
            dev.write_reg("ctrl_pcap_pr", 1)
            dev.write_reg("ctrl_pcap_mode", 1)
    else:
        dev = boot_device()
        if state == "ready":
            dev.interface_acquire(Interface.PCAP)
    dev.drain_events()
    act(dev)
    assert _text(dev) == expected
    # the engine events but sync and desync are the stream's rejection
    assert dev.cfg_error == [
        e[len("ENGINE "):] for e in expected
        if e.startswith("ENGINE ") and e not in ("ENGINE sync", "ENGINE desync")]


def test_cfg_error_holds_the_last_rejected_stream():
    dev = _ready_device()
    desync = _t1(ConfigRegister.CMD, CmdCode.DESYNC)
    _run(dev, [SYNC_WORD, 0x60000000, *desync])
    assert dev.cfg_error == ["ignored_word word=0x60000000"]
    dev.interface_acquire(Interface.PCAP)
    _run(dev, [SYNC_WORD, *_t1(ConfigRegister.FAR, 0x04000000), *desync])
    assert dev.cfg_error == ["bad_far word=0x04000000"]
    # a clean stream leaves the pending rejection for the poller
    dev.interface_acquire(Interface.PCAP)
    _run(dev, [SYNC_WORD, *desync])
    assert dev.cfg_error == ["bad_far word=0x04000000"]


class TestClockDivisor:
    def test_divisor_4_is_25mhz(self):
        dev = Device()
        dev.set_pcap_clock_divisor(4)
        assert dev.pcap_clock_hz == 25_000_000

    def test_default_is_100mhz(self):
        assert Device().pcap_clock_hz == 100_000_000

    def test_zero_divisor_rejected(self):
        with pytest.raises(ValueError):
            Device().set_pcap_clock_divisor(0)

    def test_simulated_time_follows_each_transfer_divisor(self):
        # Each transfer is timed at the divisor set when it runs, summed in
        # order in the same float arithmetic; a failed one adds nothing.
        dev = _ready_device()
        write = build_write_frame_sequence(ZEDBOARD_IDCODE, 0, [[7] * FRAME_WORDS]).words
        expected_s, expected_words = 0.0, 0

        def transfer(div, src, dst, n):
            nonlocal expected_s, expected_words
            dev.set_pcap_clock_divisor(div)
            dev.interface_acquire(Interface.PCAP)  # a DESYNC released it
            dev.dma_enqueue(src, dst, n, n)
            dev.dma_process()
            expected_s += (n * 4) / min(4 * (PCAP_CLK_HZ // div), PCAP_MAX_BYTES_PER_SEC)
            expected_words += n
            assert dev.sim_seconds == expected_s
            assert dev.words_moved == expected_words

        def fails(div, src, dst, src_len, dst_len):
            dev.set_pcap_clock_divisor(div)
            dev.interface_acquire(Interface.PCAP)
            _fails(dev, src, dst, src_len, dst_len)
            assert dev.sim_seconds == expected_s
            assert dev.words_moved == expected_words

        # Lengths at which n * (4 / rate) would round differently; unwritten
        # DRAM streams zero words, which an unsynced engine skips.
        for div, n in ((1, 5), (3, 10), (4, 3), (8, 17), (1, 23), (3, 31)):
            transfer(div, 0x00100000, PL_ADDR, n)
        for divs in ((1, 3, 4), (8, 1, 3), (4, 8, 1)):
            dev.dram.write_words(REQ, write)
            transfer(divs[0], REQ, PL_ADDR, len(write))
            n = _stage_readback(dev, 0, 1)
            fails(divs[1], REQ, PL_ADDR, n, n + 1)  # width
            transfer(divs[1], REQ, PL_ADDR, n)
            transfer(divs[2], PL_ADDR, DST, 2 * FRAME_WORDS)
        n = _stage_readback(dev, 0, 2)
        transfer(8, REQ, PL_ADDR, n)
        fails(1, PL_ADDR, DST, 3 * FRAME_WORDS, 3 * FRAME_WORDS)  # overflow
        transfer(3, REQ, PL_ADDR, n)  # a second request replaces the first
        transfer(4, PL_ADDR, DST, 3 * FRAME_WORDS)
        assert dev.dram.read_words(DST + 4 * FRAME_WORDS, FRAME_WORDS) == [7] * FRAME_WORDS


class TestArbitration:
    def test_preemption_scenario_trace(self):
        dev = boot_device()
        dev.drain_events()
        assert dev.interface_acquire(Interface.PCAP)
        assert dev.interface_acquire(Interface.JTAG)
        assert not dev.interface_acquire(Interface.RBCRC)
        dev.interface_release_on_desync()
        assert dev.interface_acquire(Interface.RBCRC)
        assert _text(dev) == [
            "ACQUIRE PCAP GRANTED",
            "ACQUIRE JTAG PREEMPTS PCAP",
            "ACQUIRE RBCRC IGNORED OWNER=JTAG",
            "DESYNC RELEASE JTAG",
            "ACQUIRE RBCRC GRANTED",
        ]

    def test_lower_priority_ignored(self):
        dev = boot_device()
        dev.interface_acquire(Interface.PCAP)
        assert not dev.interface_acquire(Interface.ICAP)
        assert dev.owner is Interface.PCAP

    def test_rbcrc_never_preempts(self):
        dev = boot_device()
        dev.interface_acquire(Interface.ICAP)
        assert not dev.interface_acquire(Interface.RBCRC)

    def test_reacquire_is_silent_success(self):
        dev = boot_device()
        dev.interface_acquire(Interface.PCAP)
        dev.drain_events()
        assert dev.interface_acquire(Interface.PCAP)
        assert _text(dev) == []

    def test_plain_int_kind(self):
        dev = boot_device()
        dev.drain_events()
        assert dev.interface_acquire(2)
        assert dev.owner is Interface.PCAP
        assert _text(dev) == ["ACQUIRE PCAP GRANTED"]
        # the owner asking again by number: granted, silently
        assert dev.interface_acquire(2)
        assert dev.owner is Interface.PCAP
        assert _text(dev) == []
        assert dev.interface_acquire(3)
        assert _text(dev) == ["ACQUIRE JTAG PREEMPTS PCAP"]

    def test_member_kind_skips_the_conversion(self, monkeypatch):
        calls = []
        meta = type(Interface)
        call = meta.__call__

        def counting(cls, *args, **kwargs):
            if cls is Interface:
                calls.append(args)
            return call(cls, *args, **kwargs)

        monkeypatch.setattr(meta, "__call__", counting)
        dev = boot_device()
        for kind in Interface:  # each granted with no owner, then released
            assert dev.interface_acquire(kind)
            dev.interface_release_on_desync()
        dev.interface_acquire(Interface.PCAP)
        assert not dev.interface_acquire(Interface.ICAP)
        assert calls == []
        assert dev.interface_acquire(3)  # a plain int is converted
        assert calls == [(3,)]

    def test_desync_from_engine_releases(self):
        dev = _ready_device()
        n = _stage_write(dev, 0, [0] * FRAME_WORDS)
        dev.dma_enqueue(REQ, PL_ADDR, n, n)
        dev.dma_process()
        assert dev.owner is None
        assert any("DESYNC RELEASE PCAP" in e for e in _text(dev))

    def test_ownership_exclusive(self):
        dev = boot_device()
        dev.interface_acquire(Interface.PCAP)
        dev.interface_acquire(Interface.JTAG)
        assert dev.owner is Interface.JTAG  # exactly one owner at a time


class TestThroughputAccounting:
    def test_rate_capped_at_145_mbps(self):
        dev = _ready_device()
        n = _stage_write(dev, 0, [1] * FRAME_WORDS)
        dev.dma_enqueue(REQ, PL_ADDR, n, n)
        dev.dma_process()
        assert dev.sim_seconds > 0
        rate = (dev.words_moved * 4) / dev.sim_seconds
        assert rate <= PCAP_MAX_BYTES_PER_SEC + 1e-6


class TestDram:
    def test_unwritten_reads_zero(self):
        dev = Device()
        assert dev.dram.read_word(0xDEAD0000) == 0
        assert dev.dram.read_bytes(0x123, 5) == b"\x00" * 5

    def test_word_round_trip_and_page_straddle(self):
        dev = Device()
        addr = 0x00200FFE  # straddles a 4 KB page boundary
        dev.dram.write_bytes(addr, b"\x01\x02\x03\x04")
        assert dev.dram.read_bytes(addr, 4) == b"\x01\x02\x03\x04"
        dev.dram.write_word(0xFFFF0000, 64640)
        assert dev.dram.read_word(0xFFFF0000) == 64640

    def test_words_bulk(self):
        dev = Device()
        dev.dram.write_words(0x1000, [1, 2, 3])
        assert dev.dram.read_words(0x1000, 3) == [1, 2, 3]
        assert dev.dram.read_bytes(0x1000, 4) == b"\x00\x00\x00\x01"

    def test_negative_read_length_is_rejected(self):
        dram = Dram()
        dram.write_bytes(0x1000, b"abcd")
        for addr in (0x1000, 0x5000):  # a written page and an unwritten one
            with pytest.raises(ValueError, match="negative"):
                dram.read_bytes(addr, -4)

    def test_bad_word_changes_nothing(self):
        dram = Dram()
        dram.write_words(0x1000, [7, 8])
        for addr in (0x1000, 0x1FFC, 0x5000):  # written, across a page, unwritten
            with pytest.raises(struct.error):
                dram.write_words(addr, [1, 1 << 32])
        assert dram.read_bytes(0x1000, 0x4008) == (
            words_to_bytes([7, 8]) + bytes(0x4000))

    def test_a_span_past_either_end_raises_and_changes_nothing(self):
        # The space is 0..0xFFFFFFFF.  A span that leaves it at the top or
        # starts below 0 raises ValueError before a byte moves: no read
        # comes back short and no address wraps to the other end.
        top = 1 << 32
        dram = Dram()
        dram.write_bytes(top - 8, b"abcd")
        dram.write_word(top - 4, 0x01020304)  # both end at the top or below
        assert dram.read_bytes(top - 8, 8) == b"abcd\x01\x02\x03\x04"
        assert dram.read_word(top - 4) == 0x01020304
        assert dram.read_bytes(top, 0) == b""
        for addr, n in ((top - 4, 8), (top - 1, 2), (top, 1), (-4, 4), (-8, 4)):
            with pytest.raises(ValueError, match="address space"):
                dram.read_bytes(addr, n)
            with pytest.raises(ValueError, match="address space"):
                dram.write_bytes(addr, b"x" * n)
        for addr in (top - 3, top, -4, -8):
            with pytest.raises(ValueError, match="address space"):
                dram.read_word(addr)
            with pytest.raises(ValueError, match="address space"):
                dram.write_word(addr, 7)
        with pytest.raises(ValueError, match="address space"):
            dram.read_words(top - 4, 2)
        with pytest.raises(ValueError, match="address space"):
            dram.write_words(top - 4, [5, 6])
        assert dram.read_bytes(top - 16, 16) == bytes(8) + b"abcd\x01\x02\x03\x04"
        assert dram.read_bytes(0, 16) == bytes(16)

    def test_cross_page_read_builds_one_buffer(self):
        # 1 MiB + 30,000 bytes from mid-page, the last 10,000 of them
        # never written: the read allocates only the buffer it returns.
        dram = Dram()
        addr, length, hole = 0x01000123, (1 << 20) + 30_000, 10_000
        data = bytes(range(256)) * ((length - hole) // 256 + 1)
        dram.write_bytes(addr, data[:length - hole])
        tracemalloc.start()
        try:
            got = dram.read_bytes(addr, length)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == data[:length - hole] + bytes(hole)
        assert peak < length + 4096


# Differential check against a flat bytearray model of one span across a
# 4 KB boundary, where the OS backs a new page of the map: byte and word
# accesses land on and off word alignment.
_LO = 0x00201000 - 64
_SPAN = 160  # the model covers [_LO, _LO + _SPAN)
_MAX_WORDS = 8

_dram_addr = st.one_of(
    st.integers(0, 30).map(lambda k: _LO + 4 * k),  # word-aligned
    st.integers(_LO, _LO + _SPAN - 4 * _MAX_WORDS),
)
_dram_op = st.one_of(
    st.tuples(st.just("write_word"), _dram_addr, st.integers(0, (1 << 34) - 1)),
    st.tuples(st.just("write_words"), _dram_addr,
              st.lists(st.integers(0, 0xFFFFFFFF), max_size=_MAX_WORDS)),
    st.tuples(st.just("write_bytes"), _dram_addr,
              st.binary(max_size=4 * _MAX_WORDS)),
    st.tuples(st.just("read_word"), _dram_addr, st.none()),
    st.tuples(st.just("read_words"), _dram_addr, st.integers(0, _MAX_WORDS)),
    st.tuples(st.just("read_bytes"), _dram_addr, st.integers(0, 4 * _MAX_WORDS)),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(_dram_op, max_size=25))
def test_dram_matches_flat_model(ops):
    dram = Dram()
    model = bytearray(_SPAN)
    for op, addr, arg in ops:
        off = addr - _LO
        if op.startswith("write"):
            if op == "write_word":
                dram.write_word(addr, arg)
                data = (arg & 0xFFFFFFFF).to_bytes(4, "big")
            elif op == "write_words":
                dram.write_words(addr, arg)
                data = b"".join(w.to_bytes(4, "big") for w in arg)
            else:
                dram.write_bytes(addr, arg)
                data = arg
            model[off:off + len(data)] = data
            continue
        if op == "read_word":
            assert dram.read_word(addr) == int.from_bytes(model[off:off + 4], "big")
        elif op == "read_words":
            got = dram.read_words(addr, arg)
            assert got == [int.from_bytes(model[off + 4 * i:off + 4 * i + 4], "big")
                           for i in range(arg)]
        else:
            assert dram.read_bytes(addr, arg) == bytes(model[off:off + arg])
        assert dram.read_bytes(_LO, _SPAN) == bytes(model)  # a read changes no byte
    assert dram.read_bytes(_LO, _SPAN) == bytes(model)
    assert dram.read_bytes(_LO - 4096, 4096) == bytes(4096)  # unwritten reads 0
    assert dram.read_bytes(_LO + _SPAN, 4096) == bytes(4096)
