import collections
import io
import random

import pytest

from conftest import python_calls, write_flipped_bit
from idfsim.campaign import (
    Campaign,
    ERROR_COUNTER_ADDR,
    FrameRow,
    OK_COUNTER_ADDR,
    PIN_CLK_EN,
    READBACK_DST_ADDR,
    READBACK_REQ_ADDR,
    TEMPLATE_ADDR,
    campaign_init,
    compare_summaries,
    counters,
    estimate_time,
    frame_rows_csv,
    merge_summaries,
    overhead_csv,
    overhead_diff,
    parse_utilization,
    summary_csv,
    summary_text,
)
from idfsim import devc
from idfsim.devc import (
    Device,
    DevcError,
    Interface,
    TransferError,
    boot_device,
)
from idfsim.dut import (
    Criticality,
    DutModel,
    SensitivityMap,
    sensitivity_generate,
)
from idfsim.fabric import (
    FRAME_BITS,
    FRAME_BYTES,
    FRAME_WORDS,
    ZERO_FRAME,
    ConfigEngine,
    desk_geometry,
    snapshot_digest,
    z7020like_geometry,
)
from idfsim.packets import (
    DESYNC_WRITE,
    READBACK_FAR_INDEX,
    WRITE_DATA_INDEX,
    WRITE_FAR_INDEX,
    CmdCode,
    ZEDBOARD_IDCODE,
    build_readback_sequence,
    build_write_frame_sequence,
    words_to_bytes,
)

# Word slots of the resident streams, pinned here apart from `packets`: the
# template's IDCODE value, WCFG command, FAR payload and first data word,
# and the request's RCFG command and FAR payload.
TPL_IDCODE_INDEX = 4
TPL_FAR_INDEX = 6
TPL_WCFG_INDEX = 8
TPL_DATA_INDEX = 11
REQ_RCFG_INDEX = 18
REQ_FAR_INDEX = 21


def test_packets_names_the_far_and_data_slots():
    assert (WRITE_FAR_INDEX, WRITE_DATA_INDEX, READBACK_FAR_INDEX) == (6, 11, 21)


def _fresh(smap=None, **kwargs):
    dev = boot_device()
    dut = DutModel(sensitivity_map=smap)
    return dev, Campaign(dev, dut, **kwargs)


class TestEstimateTime:
    def test_reference_rate(self):
        assert estimate_time(64640) == 440.0

    def test_single_frame_scales_linearly(self):
        # linear-scaling oracle: one frame of flips at the reference rate
        assert estimate_time(3232) == pytest.approx(3232 * (440.0 / 64640))
        assert estimate_time(3232) == pytest.approx(22.0)

    def test_zero(self):
        assert estimate_time(0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            estimate_time(-1)


class TestCampaignInit:
    def test_counters_zeroed_and_clock_enabled(self):
        dev = boot_device()
        campaign_init(dev)
        assert dev.dram.read_word(ERROR_COUNTER_ADDR) == 0
        assert dev.dram.read_word(OK_COUNTER_ADDR) == 0
        assert dev.gpio.get(PIN_CLK_EN, 0) == 1

    def test_refuses_a_pending_rejected_stream(self):
        # A stream the engine rejected before the campaign is not charged
        # to the campaign's first injection.
        dev = boot_device()
        dev.interface_acquire(Interface.PCAP)
        words = build_write_frame_sequence(ZEDBOARD_IDCODE ^ 1, 0,
                                           [[0] * FRAME_WORDS]).words
        dev.dram.write_words(TEMPLATE_ADDR, words)
        dev.dma_enqueue(TEMPLATE_ADDR, devc.PL_ADDR, len(words), len(words))
        dev.dma_process()
        with pytest.raises(DevcError) as info:
            Campaign(dev, DutModel(sensitivity_map=SensitivityMap()))
        assert str(info.value) == (
            "device has a rejected stream pending: idcode_mismatch "
            "got=0x23727092, fdri_rejected_idcode, fdri_rejected_idcode")
        assert dev.gpio.get(PIN_CLK_EN, 0) == 0  # refused before any set-up

    def test_template_first_word_is_dummy(self):
        dev = boot_device()
        campaign_init(dev)
        assert dev.dram.read_word(TEMPLATE_ADDR) == 0xFFFFFFFF

    def test_template_layout(self):
        words = build_write_frame_sequence(ZEDBOARD_IDCODE, 0,
                                           [[0] * FRAME_WORDS]).words.tolist()
        assert len(words) == 215
        assert words[TPL_DATA_INDEX:TPL_DATA_INDEX + FRAME_WORDS] == [0] * FRAME_WORDS
        dev, c = _fresh()
        c.stage_frame(0x42)
        assert dev.dram.read_word(TEMPLATE_ADDR + 4 * TPL_FAR_INDEX) == 0x42
        assert dev.dram.read_words(TEMPLATE_ADDR, 215) == (
            words[:TPL_FAR_INDEX] + [0x42] + words[TPL_FAR_INDEX + 1:])

    def test_readback_request_layout(self):
        def request(far_word):
            return (build_readback_sequence(far_word, 1).words.tolist()
                    + list(DESYNC_WRITE))

        words = request(0x42)
        assert words[REQ_FAR_INDEX] == 0x42
        assert len(words) == 58
        assert tuple(words[-len(DESYNC_WRITE):]) == DESYNC_WRITE
        dev = boot_device()
        assert campaign_init(dev) == (215, 58)
        assert dev.dram.read_words(READBACK_REQ_ADDR, 58) == request(0)
        # Each read patches the resident request's FAR and nothing else.
        a, b = desk_geometry().far_words()[5:7]
        write_flipped_bit(dev.engine, b, 291)
        c = Campaign(dev, DutModel(sensitivity_map=SensitivityMap()))
        c.read_frame(a)
        assert c.read_frame(b) == dev.engine.memory.get(b, ZERO_FRAME)
        assert dev.dram.read_words(READBACK_REQ_ADDR, 58) == request(b)

    def test_requires_initialized_device(self):
        with pytest.raises(DevcError):
            campaign_init(Device())


def test_check_scans_only_changed_frames():
    # A whole-device map and a fully written fabric: each check must look
    # only at the frames written since the previous check, not all 9158.
    geo = z7020like_geometry()
    fars = geo.far_words()
    smap = SensitivityMap()
    dev = boot_device(geo)
    for i, far in enumerate(fars):
        smap.add(far, i % FRAME_BITS, Criticality.MODULE0)
        write_flipped_bit(dev.engine, far, i % 32)
    seen = []

    class Scanned(dict):
        """The map's frames by FAR, recording each one a check looks up."""

        def get(self, far_word, default=None):
            seen.append(far_word)
            return dict.get(self, far_word, default)

    smap._by_far = Scanned(smap._by_far)
    c = Campaign(dev, DutModel(sensitivity_map=smap))
    assert seen == []
    previous = []
    for far in (fars[5], fars[9000], fars[77]):
        c.inject_and_check(far, 5)
        # this frame's fault and the previous frame's restore
        assert sorted(seen) == sorted(previous + [far])
        del seen[:]
        previous = [far]
    assert counters(dev) == (1, 2)


def test_events_are_rendered_only_at_the_log_sink(monkeypatch):
    rendered = []
    render = devc.render_event

    def counting(record):
        rendered.append(record)
        return render(record)

    monkeypatch.setattr(devc, "render_event", counting)
    dev, c = _fresh()
    far = dev.geometry.far_words()[3]
    c.inject_and_check(far, 0)
    assert rendered == []  # no sink: the records are drained unrendered
    c.log = io.StringIO()
    c.inject_and_check(far, 1)
    lines = c.log.getvalue().splitlines()
    assert len(lines) == len(rendered) == 20
    assert lines[0] == "ACQUIRE PCAP GRANTED"


def test_one_injection_without_a_sink_runs_the_whole_procedure(monkeypatch):
    # No log sink skips no step: four DMAs move 58 + 202 + 215 + 215 words
    # through three engine streams, and the simulated PCAP time they add
    # equals that of the same injection with a sink attached.
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Device, "dma_process",
                        counted("dma_process", Device.dma_process))
    monkeypatch.setattr(ConfigEngine, "execute",
                        counted("execute", ConfigEngine.execute))
    added = []
    for log in (None, io.StringIO()):
        dev, c = _fresh(log=log)
        far = dev.geometry.far_words()[4]
        del calls[:]
        words, seconds = dev.words_moved, dev.sim_seconds
        record = c.inject_and_check(far, 101)
        assert record.error is None
        added.append((dev.words_moved - words, dev.sim_seconds - seconds,
                      calls.count("dma_process"), calls.count("execute")))
    moved, seconds, dmas, streams = added[0]
    assert (moved, dmas, streams) == (58 + 202 + 215 + 215, 4, 3)
    assert seconds > 0
    assert added[1] == added[0]


# Python-level calls of one injection, as python_calls counts them.
INJECTION_CALLS = 42


def test_per_injection_work_is_pinned():
    # Over 64 injections into one desk frame, every modeled step runs as
    # often as the procedure says, and an injection makes no more Python
    # calls than INJECTION_CALLS: a skipped step or an added call fails.
    smap = SensitivityMap()
    for bit in (0, 37, 70):
        smap.add(0, bit, Criticality.MODULE0)
    dev, c = _fresh(smap)
    c.inject_and_check(0, 0)  # the first check converts the baseline
    # list and map are C-level: only the injections' own calls count
    records, calls = python_calls(list, map(c.inject_and_check, [0] * 64,
                                            range(64)))
    assert [r.error for r in records] == [None] * 64
    assert sum(r.detected for r in records) == 2  # map bits 0 and 37
    per = {name: n / 64 for name, n in calls.items()}
    assert per["Device.dma_process"] == 4
    assert per["Device.dma_enqueue"] == 4
    assert per["Device.interface_acquire"] == 4
    assert per["ConfigEngine.execute"] == 3
    assert per["DutModel.run_check"] == 1
    assert sum(n for name, n in per.items() if name.startswith("Dram.")) == 11
    assert sum(per.values()) <= INJECTION_CALLS


def _configure(dev, seed):
    """Write a seeded random image of every frame over PCAP, as one write
    sequence through dma_enqueue/dma_process; returns it by FAR word."""
    rng = random.Random(seed)
    fars = dev.geometry.far_words()
    frames = [[rng.getrandbits(32) for _ in range(FRAME_WORDS)] for _ in fars]
    words = build_write_frame_sequence(dev.engine.device_id, fars[0],
                                       frames).words
    addr = 0x01000000
    dev.dram.write_words(addr, words)
    assert dev.interface_acquire(Interface.PCAP)
    dev.dma_enqueue(addr, devc.PL_ADDR, len(words), len(words))
    dev.dma_process()
    dev.drain_events()
    return {far: words_to_bytes(frame) for far, frame in zip(fars, frames)}


def _configured_campaign_disagreements():
    """Run a campaign over three frames of a configured fabric; returns the
    names of the records that disagree with the map or the image: "rows"
    (`frames.csv` against the map's per-frame counts), "summary",
    "counters" (the DRAM counters) and "digest" (the restored fabric)."""
    dev = boot_device()
    image = _configure(dev, seed=1501)
    assert {far: dev.engine.memory.get(far, ZERO_FRAME) for far in image} == image
    fars = dev.geometry.far_words()
    targets = [fars[3], fars[9], fars[17]]  # one ends a column, one the device
    smap = sensitivity_generate(1501, targets, 45)
    mapped = collections.Counter(far for far, _, _ in smap.iter_entries())
    assert all(mapped[far] for far in targets)
    c = Campaign(dev, DutModel(sensitivity_map=smap))
    configured = snapshot_digest(dev.engine)
    summary, rows = c.run_auto(targets)
    total = len(targets) * FRAME_BITS
    expected = (smap.critical_count, total - smap.critical_count)
    checks = {
        "rows": frame_rows_csv(rows) == frame_rows_csv(
            FrameRow(far, FRAME_BITS, mapped[far], FRAME_BITS - mapped[far])
            for far in targets),
        "summary": (summary.total_injections, summary.transfer_errors,
                    summary.critical, summary.non_critical) == (total, 0,
                                                                *expected),
        "counters": counters(dev) == expected,
        "digest": snapshot_digest(dev.engine) == configured,
    }
    return [name for name, agrees in checks.items() if not agrees]


def test_campaign_on_a_configured_fabric():
    # On a blank fabric a read-back of the wrong frame, or of the dummy
    # frame, still stages zeros and goes unseen.  On a configured one each
    # injection flips one bit of the frame's own content, so exactly the
    # mapped bits are critical, and every restore puts the image back.
    assert _configured_campaign_disagreements() == []


def _read_next_far(monkeypatch):
    fars = desk_geometry().far_words()
    read = Campaign.read_frame

    def next_far(self, far_word):
        return read(self, fars[(fars.index(far_word) + 1) % len(fars)])

    monkeypatch.setattr(Campaign, "read_frame", next_far)


def _read_dummy_frame(monkeypatch):
    read = Campaign.read_frame

    def dummy(self, far_word):
        read(self, far_word)
        return self.device.dram.read_bytes(READBACK_DST_ADDR, FRAME_BYTES)

    monkeypatch.setattr(Campaign, "read_frame", dummy)


def _count_errors_as_error_free(monkeypatch):
    write_word = devc.Dram.write_word

    def redirected(self, addr, word):
        write_word(self, OK_COUNTER_ADDR if addr == ERROR_COUNTER_ADDR
                   else addr, word)

    monkeypatch.setattr(devc.Dram, "write_word", redirected)


@pytest.mark.parametrize("mutate, disagreements", [
    (_read_next_far, ["rows", "summary", "counters", "digest"]),
    (_read_dummy_frame, ["rows", "summary", "counters", "digest"]),
    # The reports come from the DRAM counters, so a miscounting PS shows
    # in `frames.csv` and the summary, not only in the counters.
    (_count_errors_as_error_free, ["rows", "summary", "counters"]),
], ids=["next_far", "dummy_frame", "error_counter"])
def test_configured_campaign_sees_each_mutation(monkeypatch, mutate,
                                                disagreements):
    mutate(monkeypatch)
    assert _configured_campaign_disagreements() == disagreements


def _detected_and_mapped(far):
    """Inject every bit of `far` on the seeded configured fabric; returns
    the bits found critical and the bits the map holds for `far`."""
    dev = boot_device()
    _configure(dev, seed=1501)
    smap = sensitivity_generate(1501, [far], 400)
    c = Campaign(dev, DutModel(sensitivity_map=smap))
    records = [c.inject_and_check(far, bit) for bit in range(FRAME_BITS)]
    assert [r.error for r in records] == [None] * FRAME_BITS
    return ({r.bit for r in records if r.detected},
            {bit for _, bit, _ in smap.iter_entries()})


def test_each_injection_on_a_configured_fabric_hits_its_own_bit():
    # Per-frame counts cannot tell the injected bit from another bit of
    # the same word; record by record, exactly the mapped bits are critical.
    detected, mapped = _detected_and_mapped(desk_geometry().far_words()[9])
    assert len(mapped) == 400
    assert detected == mapped


def test_a_byte_order_slip_in_the_flip_is_seen_bit_by_bit(monkeypatch):
    # The slip flips byte `bit >> 3` of the frame in place of
    # `(bit >> 3) ^ 3`, so it permutes the bits of each word: the frame's
    # count of critical bits stays the same, but not which bits they are.
    def slipped(frame, bit):
        flipped = bytearray(frame)
        flipped[bit >> 3] ^= 1 << (bit & 7)
        return bytes(flipped)

    monkeypatch.setattr("idfsim.campaign.flip_frame_bit", slipped)
    detected, mapped = _detected_and_mapped(desk_geometry().far_words()[9])
    assert len(detected) == len(mapped)
    assert detected != mapped


class TestInjectAndCheck:
    def test_not_critical_bit(self):
        dev, c = _fresh()
        record = c.inject_and_check(0, 0)
        assert record.detected is False
        assert record.error is None
        assert counters(dev) == (0, 1)

    def test_critical_bit_detected(self):
        smap = SensitivityMap()
        smap.add(0, 0, Criticality.MODULE0)  # word 0, bit 0
        dev, c = _fresh(smap)
        record = c.inject_and_check(0, 0)
        assert record.detected is True
        assert counters(dev) == (1, 0)
        assert dev.gpio.get(13, 0) == 1

    def test_memory_restored(self):
        dev, c = _fresh()
        before = snapshot_digest(dev.engine)
        c.inject_and_check(0, 1351)
        assert snapshot_digest(dev.engine) == before

    def test_restored_even_on_faulted_frame(self):
        smap = SensitivityMap()
        smap.add(0, 1337, Criticality.MODULE1)
        dev, c = _fresh(smap)
        before = snapshot_digest(dev.engine)
        record = c.inject_and_check(0, 1337)
        assert record.detected
        assert snapshot_digest(dev.engine) == before

    def test_interface_held_by_jtag_is_an_uncounted_error(self):
        smap = SensitivityMap()
        smap.add(0, 0, Criticality.MODULE0)
        dev, c = _fresh(smap)
        before = snapshot_digest(dev.engine)
        assert dev.interface_acquire(Interface.JTAG)
        record = c.inject_and_check(0, 0)
        assert record.error == ("PCAP could not acquire the configuration "
                                "interface")
        assert record.detected is False
        assert counters(dev) == (0, 0)
        assert snapshot_digest(dev.engine) == before
        dev.interface_release_on_desync()
        record = c.inject_and_check(0, 0)
        assert (record.detected, record.error) == (True, None)
        assert counters(dev) == (1, 0)
        assert snapshot_digest(dev.engine) == before

    def test_bit_position_validated(self):
        dev, c = _fresh()
        for bit in (-1, FRAME_BITS):
            with pytest.raises(ValueError, match="^bit position outside a frame$"):
                c.inject_and_check(0, bit)
        assert counters(dev) == (0, 0)

    def test_invalid_far_rejected_before_anything_changes(self):
        # The engine would log bad_far and write wherever current_far
        # points, out of reach of the restore.
        dev, c = _fresh()
        before = snapshot_digest(dev.engine)
        with pytest.raises(ValueError, match="invalid for geometry desk"):
            c.inject_and_check(0x00300000, 0)  # row 24 on desk
        assert snapshot_digest(dev.engine) == before
        assert counters(dev) == (0, 0)

    def test_read_back_leaves_the_engine_desynced(self):
        # The read-back request closes with DESYNC, so the template write
        # that follows syncs afresh instead of reading DUMMY and SYNC as
        # packets.
        log = io.StringIO()
        dev, c = _fresh(log=log)
        assert c.inject_and_check(0, 100).error is None
        assert not dev.cfg_error
        lines = log.getvalue().splitlines()
        assert not [line for line in lines if "ignored_word" in line]
        assert lines.count("ENGINE sync") == 3  # request, fault, restore
        assert lines.count("ENGINE desync") == 3
        assert dev.owner is None


class TestTransferErrors:
    def test_error_recorded_and_memory_restored(self, monkeypatch):
        dev, c = _fresh()
        before = snapshot_digest(dev.engine)
        real = Campaign.write_template_frame
        calls = {"n": 0}

        def flaky(self):
            calls["n"] += 1
            if calls["n"] == 1:  # fail the inject write, let the restore pass
                raise TransferError("test", "injected fault")
            return real(self)

        monkeypatch.setattr(Campaign, "write_template_frame", flaky)
        record = c.inject_and_check(0, 0)
        assert record.error is not None
        assert snapshot_digest(dev.engine) == before
        # errored injections do not count
        assert counters(dev) == (0, 0)

    def test_fail_fast(self, fail_dma_calls):
        dev, c = _fresh(fail_fast=True)
        before = snapshot_digest(dev.engine)
        fail_dma_calls({3})  # the first fault write
        with pytest.raises(TransferError, match="injected fault") as info:
            c.run_auto([0])
        assert info.value.reason == "campaign"
        assert snapshot_digest(dev.engine) == before
        assert counters(dev) == (0, 0)

    # The four DMAs of one injection, in order.
    @pytest.mark.parametrize("k", [1, 2, 3, 4],
                             ids=["request", "drain", "fault_write", "restore"])
    def test_failure_at_each_dma(self, fail_dma_calls, k):
        smap = SensitivityMap()
        smap.add(0, 0, Criticality.MODULE0)    # the injection that fails
        smap.add(0, 100, Criticality.MODULE0)
        dev, c = _fresh(smap)
        before = snapshot_digest(dev.engine)
        fail_dma_calls({k})
        records = []
        inject = c.inject_and_check

        def keep(*args):
            records.append(inject(*args))
            return records[-1]

        c.inject_and_check = keep
        summary, rows = c.run_auto([0])
        assert snapshot_digest(dev.engine) == before
        assert sum(counters(dev)) == summary.total_injections
        assert summary.total_injections + summary.transfer_errors == 3232
        assert summary.transfer_errors == 1
        # A fault left in the fabric would be read back by every later
        # injection and make each of them critical.
        assert summary.critical == rows[0].critical == 1
        errored = [r for r in records if r.error is not None]
        assert [r.bit for r in errored] == [0]
        assert errored[0].error.endswith(f"injected fault at DMA {k}")
        assert errored[0].error.startswith("restore failed") == (k == 4)

    def test_restore_failing_twice_ends_the_campaign(self, fail_dma_calls):
        dev, c = _fresh()
        fail_dma_calls({4, 5})  # the restore and its retry
        with pytest.raises(TransferError, match="restore of FAR 0x00000000 "
                           "failed twice: injected fault at DMA 5") as info:
            c.run_auto([0])
        assert info.value.reason == "restore"
        assert counters(dev) == (0, 0)
        assert dev.gpio.get(PIN_CLK_EN, 0) == 1

    def test_errors_skipped_not_dropped(self, monkeypatch):
        smap = SensitivityMap()
        smap.add(0, 0, Criticality.MODULE0)
        dev, c = _fresh(smap)
        real = Campaign.write_template_frame
        calls = {"n": 0}

        def flaky(self):
            calls["n"] += 1
            if calls["n"] == 1:
                raise TransferError("test", "injected fault")
            return real(self)

        monkeypatch.setattr(Campaign, "write_template_frame", flaky)
        summary, rows = c.run_auto([0])
        assert summary.transfer_errors == 1
        assert summary.total_injections == 3231
        assert summary.critical + summary.non_critical == summary.total_injections
        assert counters(dev) == (summary.critical, summary.non_critical)


BAD_FAR = 0x00300000  # row 24: outside desk


class TestRejectedStreams:
    """A stream the engine rejects is a transfer error, never a counted
    injection: the campaign polls `Device.cfg_error` after each DMA."""

    def _campaign(self):
        far = desk_geometry().far_words()[4]
        smap = SensitivityMap()
        smap.add(far, 0, Criticality.MODULE0)  # word 0, bit 0 is critical
        dev, c = _fresh(smap)
        return dev, c, far

    def test_slots(self):
        template = build_write_frame_sequence(ZEDBOARD_IDCODE, 0,
                                              [[0] * FRAME_WORDS]).words
        assert template[TPL_IDCODE_INDEX] == ZEDBOARD_IDCODE
        assert template[TPL_WCFG_INDEX] == CmdCode.WCFG
        assert build_readback_sequence(0, 1).words[REQ_RCFG_INDEX] == CmdCode.RCFG

    def test_rejected_request_is_recorded_not_counted(self):
        dev, c, far = self._campaign()
        before = snapshot_digest(dev.engine)
        dev.dram.write_word(READBACK_REQ_ADDR + 4 * REQ_RCFG_INDEX, 0)
        record = c.inject_and_check(far, 0)
        assert record.error == ("configuration engine rejected the stream: "
                                "fdro_without_rcfg")
        assert not record.detected
        assert counters(dev) == (0, 0)
        assert not dev.cfg_error
        assert snapshot_digest(dev.engine) == before

    @pytest.mark.parametrize("slot, value, event", [
        (TPL_IDCODE_INDEX, ZEDBOARD_IDCODE ^ 1, "idcode_mismatch got=0x23727092"),
        (TPL_WCFG_INDEX, 0, "fdri_without_wcfg"),
        (TPL_FAR_INDEX, BAD_FAR, f"bad_far word=0x{BAD_FAR:08x}"),
        # The next desk FAR after the target 0x80: the engine accepts the
        # stream, and only the newest committed frame shows the miss.
        (TPL_FAR_INDEX, 0x81, "staged for FAR 0x00000080 committed FAR 0x00000081"),
    ], ids=["idcode", "wcfg", "far", "far-slot-0x81"])
    def test_rejected_template_ends_the_campaign(self, monkeypatch, slot,
                                                 value, event):
        # The fault write and both restores stream the same corrupted
        # template, so the restore fails twice.
        dev, c, far = self._campaign()
        before = snapshot_digest(dev.engine)
        stage = Campaign.stage_frame

        def corrupt(self, far_word, frame=None):
            stage(self, far_word, frame)  # stage_frame rewrites the FAR slot
            dev.dram.write_word(TEMPLATE_ADDR + 4 * slot, value)

        monkeypatch.setattr(Campaign, "stage_frame", corrupt)
        with pytest.raises(TransferError, match=f"failed twice: .*{event}") as info:
            c.run_auto([far])
        assert info.value.reason == "restore"
        assert counters(dev) == (0, 0)
        assert not dev.cfg_error
        # A bad FAR slot leaves the engine with no FAR: nothing commits.
        # A misdirected one commits at 0x81, and the restore blanks it again.
        assert snapshot_digest(dev.engine) == before

    def test_misdirected_template_on_a_configured_fabric(self, monkeypatch):
        # On a configured fabric the misdirected write does change 0x81, so
        # the campaign must stop before it counts the injection.
        dev = boot_device()
        image = _configure(dev, seed=1501)
        far = dev.geometry.far_words()[4]
        smap = SensitivityMap()
        smap.add(far, 0, Criticality.MODULE0)
        c = Campaign(dev, DutModel(sensitivity_map=smap))
        stage = Campaign.stage_frame

        def corrupt(self, far_word, frame=None):
            stage(self, far_word, frame)
            dev.dram.write_word(TEMPLATE_ADDR + 4 * TPL_FAR_INDEX, 0x81)

        monkeypatch.setattr(Campaign, "stage_frame", corrupt)
        with pytest.raises(TransferError, match="failed twice: .*committed "
                           "FAR 0x00000081") as info:
            c.run_auto([far])
        assert info.value.reason == "restore"
        assert counters(dev) == (0, 0)
        assert dev.engine.memory.get(far, ZERO_FRAME) == image[far]


@pytest.mark.parametrize("configured", [False, True], ids=["desk", "seeded"])
def test_corrupted_template_data_word_is_not_kept(monkeypatch, configured):
    # A staged data word corrupted in DRAM goes out with the fault write,
    # but the restore writes the held read-back over every data word, so
    # the fabric ends as it began.  The injection's count is not pinned.
    dev = boot_device()
    if configured:
        _configure(dev, seed=1501)
    far = dev.geometry.far_words()[4]
    smap = SensitivityMap()
    smap.add(far, 0, Criticality.MODULE0)
    c = Campaign(dev, DutModel(sensitivity_map=smap))
    before = snapshot_digest(dev.engine)
    stage = Campaign.stage_frame

    def corrupt(self, far_word, frame=None):
        stage(self, far_word, frame)
        dev.dram.write_word(TEMPLATE_ADDR + 4 * (TPL_DATA_INDEX + 5), 0xDEADBEEF)

    monkeypatch.setattr(Campaign, "stage_frame", corrupt)
    c.inject_and_check(far, 0)
    assert snapshot_digest(dev.engine) == before


class TestCampaignAuto:
    def test_empty_far_list(self):
        _, c = _fresh()
        summary, rows = c.run_auto([])
        assert summary.total_injections == 0
        assert summary.critical == 0
        assert summary.non_critical == 0
        assert rows == []

    def test_single_frame_conservation(self):
        geo = desk_geometry()
        smap = SensitivityMap()
        for bit in (0, 100, 3231):
            smap.add(0, bit, Criticality.MODULE0)
        dev, c = _fresh(smap)
        summary, rows = c.run_auto([0], variant="with_idf")
        assert summary.total_injections == 3232
        assert summary.critical == 3
        assert summary.non_critical == 3229
        assert summary.critical + summary.non_critical == summary.total_injections
        assert counters(dev) == (3, 3229)
        assert rows[0].far == 0
        assert rows[0].injections == 3232
        assert summary.estimated_minutes == pytest.approx(22.0)

    def test_determinism_identical_bytes(self):
        smap = SensitivityMap()
        smap.add(0, 7, Criticality.MODULE1)
        outputs = []
        for _ in range(2):
            dev, c = _fresh(smap)
            summary, rows = c.run_auto([0], variant="with_idf")
            outputs.append((summary_csv(summary), frame_rows_csv(rows)))
        assert outputs[0] == outputs[1]

    def test_full_memory_digest_preserved(self):
        smap = SensitivityMap()
        smap.add(0, 3, Criticality.COMPARATOR)
        dev, c = _fresh(smap)
        before = snapshot_digest(dev.engine)
        c.run_auto([0])
        assert snapshot_digest(dev.engine) == before

    def test_a_model_reused_on_a_second_device_takes_its_baseline(self):
        # Device A has mapped bit 3 of FAR 0 set and B is blank: a model
        # first captured on A must compare B's injections with B's frames.
        smap = SensitivityMap()
        for bit in (3, 7):
            smap.add(0, bit, Criticality.MODULE0)
        dut = DutModel(sensitivity_map=smap)
        assert dut.baseline_engine is None
        a = boot_device()
        write_flipped_bit(a.engine, 0, 3)
        Campaign(a, dut)
        assert dut.baseline_engine is a.engine
        b = boot_device()
        summary, rows = Campaign(b, dut).run_auto([0])
        assert dut.baseline_engine is b.engine
        assert summary.critical == rows[0].critical == 2
        assert counters(b) == (2, 3230)

    # DMA 12,959 is the fault write of the middle frame's bit 7: four DMAs
    # per injection, 3232 injections per frame.
    @pytest.mark.parametrize("failing", [set(), {4 * 3232 + 4 * 7 + 3}],
                             ids=["clean", "one_failed_dma"])
    def test_run_auto_is_a_fold_over_its_frames(self, fail_dma_calls, failing):
        # The per-frame seam: one call over the FAR list equals one call
        # per frame on the same campaign, merged with `merge_summaries`.
        fars = desk_geometry().far_words()[:3]
        smap = sensitivity_generate(11, fars, 600)
        results = []
        for per_frame in (False, True):
            dev, c = _fresh(smap)
            fail_dma_calls(failing)
            if per_frame:
                parts = [c.run_auto([far]) for far in fars]
                summary = merge_summaries(*(part[0] for part in parts))
                rows = [row for part in parts for row in part[1]]
            else:
                summary, rows = c.run_auto(fars)
            results.append((summary, rows, counters(dev)))
        assert results[0] == results[1]
        summary, rows, _ = results[0]
        # The failed injection is not counted, critical or not.
        lost = bool(failing) and (fars[1], 7) in {
            (far, bit) for far, bit, _ in smap.iter_entries()}
        assert summary.critical == 600 - lost
        assert summary.transfer_errors == len(failing)
        assert [row.injections for row in rows] == [3232, 3232 - len(failing), 3232]


def test_compare_summaries():
    from idfsim.campaign import CampaignSummary
    with_idf = CampaignSummary("with_idf", 64640, 38729, 25911, 440.0)
    without = CampaignSummary("without_idf", 64640, 37916, 26724, 440.0)
    delta, pct = compare_summaries(with_idf, without)
    assert delta == 813
    assert pct == pytest.approx(100 * 813 / 26724)


class TestMergeSummaries:
    def _shards(self):
        from idfsim.campaign import CampaignSummary
        return [CampaignSummary("with_idf", 3232, 3000, 232, 22.0),
                CampaignSummary("with_idf", 6464, 6000, 464, 44.0, 2),
                CampaignSummary("with_idf", 3232, 3232, 0, 22.0)]

    def test_sharded_totals(self):
        from idfsim.campaign import merge_summaries
        merged = merge_summaries(*self._shards())
        assert merged.total_injections == 12928
        assert merged.critical == 696
        assert merged.non_critical == 12232
        assert merged.transfer_errors == 2
        assert merged.estimated_minutes == pytest.approx(estimate_time(12928))

    def test_order_independent_and_associative(self):
        from idfsim.campaign import merge_summaries
        a, b, c = self._shards()
        assert merge_summaries(a, b, c) == merge_summaries(c, a, b)
        assert merge_summaries(merge_summaries(a, b), c) == \
            merge_summaries(a, merge_summaries(b, c))

    def test_nothing_to_merge(self):
        from idfsim.campaign import merge_summaries
        with pytest.raises(ValueError, match="^nothing to merge$"):
            merge_summaries()

    def test_mixed_variants_rejected(self):
        from idfsim.campaign import CampaignSummary, merge_summaries
        with pytest.raises(ValueError):
            merge_summaries(CampaignSummary("with_idf", 1, 1, 0, 0.1),
                            CampaignSummary("without_idf", 1, 1, 0, 0.1))


class TestSummaryRendering:
    def test_text_block(self):
        from idfsim.campaign import CampaignSummary
        text = summary_text(CampaignSummary("with_idf", 64640, 38729, 25911, 440.0))
        assert "Frame Errors (With IDF)" in text
        assert "Total Injections: 64640" in text
        assert "440" in text

    def test_text_counts_transfer_errors(self, fail_dma_calls):
        _, c = _fresh()
        fail_dma_calls({3})  # the first fault write
        summary, _rows = c.run_auto([0])
        assert summary_text(summary) == (
            "Injection Type: Frame Errors (With IDF)\n"
            "Total Injections: 3231\n"
            "Non-critical bits (no error): 3231\n"
            "Critical bits (error detected): 0\n"
            "Estimated testing time (min): 21.9932\n"
            "Transfer errors (skipped): 1\n")

    def test_csv(self):
        from idfsim.campaign import CampaignSummary
        out = summary_csv(CampaignSummary("without_idf", 10, 4, 6, 0.5))
        lines = out.splitlines()
        assert lines[0].startswith("variant,")
        assert lines[1] == "without_idf,10,4,6,0.5,0"

    def test_frame_rows_header(self):
        from idfsim.campaign import FrameRow
        out = frame_rows_csv([FrameRow(0x80, 3232, 5, 3227)])
        assert out.splitlines()[0] == "far,injections,critical,non_critical"
        assert out.splitlines()[1] == "0x00000080,3232,5,3227"


class TestParseUtilization:
    def test_reference_rows(self):
        report = parse_utilization("Slice Look Up Tables,2664,0,53200\n"
                                   "DSPs,0,0,220\n")
        assert report["Slice Look Up Tables"].used == 2664
        assert report["Slice Look Up Tables"].available == 53200
        assert report["DSPs"].available == 220

    def test_dash_cells_absent(self):
        report = parse_utilization("LUT as Distributed RAM,48,0,-\n")
        assert report["LUT as Distributed RAM"].available is None

    def test_empty(self):
        assert parse_utilization("") == {}

    def test_malformed_row_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_utilization("A,1,2,3\nB,oops,2,3\n")

    def test_comments_skipped(self):
        report = parse_utilization("# header\nA,1,2,3\n")
        assert len(report) == 1

    def test_blank_line_skipped(self):
        report = parse_utilization("A,1,2,3\n  \nB,4,5,6\n")
        assert list(report) == ["A", "B"]

    def test_repeated_site_reports_both_lines(self):
        with pytest.raises(ValueError) as info:
            parse_utilization("Slice LUTs,1,0,100\nDSPs,0,0,220\n"
                              "# note\nSlice LUTs,1,0,90\n")
        assert str(info.value) == "line 4: site 'Slice LUTs' repeats line 1"

    def test_three_field_row_reports_line(self):
        with pytest.raises(ValueError) as info:
            parse_utilization("A,1,2,3\nB,1,2\n")
        assert str(info.value) == "line 2: expected 4 fields, got 3"

    def test_a_quoted_site_over_two_lines_keeps_file_lines(self):
        # an error names the file line its record starts on
        with pytest.raises(ValueError) as info:
            parse_utilization('"Slice\nLUTs",1,0,100\nDSPs,x,0,220\n')
        assert str(info.value).startswith("line 3: bad numeric cell in ")
        with pytest.raises(ValueError) as info:
            parse_utilization('"Slice\nLUTs",1,0,100\nDSPs,0,0,220\n'
                              '"Slice\nLUTs",1,0,90\n')
        assert str(info.value) == "line 4: site 'Slice\\nLUTs' repeats line 1"


class TestOverheadDiff:
    def _reports(self, without_rows, with_rows):
        return (parse_utilization(without_rows), parse_utilization(with_rows))

    def test_slice_luts(self):
        a, b = self._reports("Slice LUTs,2664,0,53200\n",
                             "Slice LUTs,2665,0,51940\n")
        rows, warnings = overhead_diff(a, b)
        assert rows[0].overhead == 1260
        assert rows[0].percent == pytest.approx(100 * 1260 / 53200)
        assert warnings == []

    def test_out_fifo(self):
        a, b = self._reports("OUT_FIFO,0,0,16\n", "OUT_FIFO,0,0,12\n")
        rows, _ = overhead_diff(a, b)
        assert rows[0].overhead == 4
        assert rows[0].percent == pytest.approx(25.0)

    def test_mmcm(self):
        a, b = self._reports("MMCME2_ADV,0,0,4\n", "MMCME2_ADV,0,0,2\n")
        rows, _ = overhead_diff(a, b)
        assert rows[0].overhead == 2
        assert rows[0].percent == pytest.approx(50.0)

    def test_absent_availability_yields_zero(self):
        a, b = self._reports("X,4,0,-\n", "X,4,0,-\n")
        rows, warnings = overhead_diff(a, b)
        assert rows[0].overhead == 0 and rows[0].percent == 0.0
        assert warnings == []

    def test_missing_site_skipped_with_warning(self):
        a, b = self._reports("X,1,0,10\nY,1,0,10\n", "X,1,0,8\n")
        rows, warnings = overhead_diff(a, b)
        assert [r.site_type for r in rows] == ["X"]
        assert any("Y" in w for w in warnings)

    def test_one_sided_availability_skipped_with_warning(self):
        a, b = self._reports("X,1,0,10\nY,1,0,-\n", "X,1,0,8\nY,1,0,4\n")
        rows, warnings = overhead_diff(a, b)
        assert [r.site_type for r in rows] == ["X"]
        assert warnings == ["site 'Y' has no comparable availability; skipped"]

    def test_negative_overhead_flagged(self):
        a, b = self._reports("X,1,0,10\n", "X,1,0,12\n")
        rows, warnings = overhead_diff(a, b)
        assert rows[0].overhead == -2
        assert warnings == ["site 'X': negative overhead: inconsistent input data"]

    def test_csv_rendering(self):
        a, b = self._reports("Slice LUTs,2664,0,53200\n",
                             "Slice LUTs,2665,0,51940\n")
        rows, _ = overhead_diff(a, b)
        out = overhead_csv(rows)
        assert out.splitlines()[1] == "Slice LUTs,1260,2.4"
