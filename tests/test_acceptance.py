"""Acceptance suite: one test per release criterion.

Each test prints a `[criterion NN] PASS` line (run with `pytest -s` to see
them live) and enforces its own wall-clock budget.  Tolerances are pinned
here and nowhere else.
"""

import io
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from conftest import write_flipped_bit, write_frames

from idfsim.campaign import (
    Campaign,
    compare_summaries,
    counters,
    overhead_diff,
    parse_utilization,
)
from idfsim.cli import BANNER_LINES, MENU_LINES, PROMPT_LINE, interactive_session, main
from idfsim.devc import (
    Interface,
    SAFE_DIVISOR,
    TransferError,
    boot_device,
    render_event,
)
from idfsim.aes import aes256_encrypt
from idfsim.dut import (
    ControlLines,
    Criticality,
    DutConfig,
    DutModel,
    SensitivityMap,
    MatchLine,
    sensitivity_generate,
)
from idfsim.fabric import (
    ConfigEngine,
    FRAME_WORDS,
    desk_geometry,
    snapshot_digest,
    z7020like_geometry,
)
from idfsim.packets import (
    ConfigPacket,
    ConfigRegister,
    TYPE2_MAX_COUNT,
    ZEDBOARD_IDCODE,
    build_desync_footer,
    build_readback_sequence,
    bytes_to_words,
    decode_stream,
    encode_packets,
    read_sequence_file,
    words_to_bytes,
)
from idfsim.verifier import (
    UNCROSSABLE,
    fence_consequence,
    parse_floorplan,
    run_all_checks,
)

FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL - {name}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} blew its {budget_seconds}s budget: {elapsed:.2f}s")
    print(f"[criterion {number:02d}] PASS - {name} ({elapsed:.2f}s)")


NOOP = 0x20000000

WRITE_FRAME_GOLDEN = (
    [0xFFFFFFFF, 0xAA995566, NOOP,
     0x30018001, 0x23727093,
     0x30002001, 0xFFFFFFFF,
     0x30008001, 0x00000001,
     0x30004000, 0x500000CA]
    + [0xFFFFFFFF] * 101
    + [0x00000000] * 101
    + [0x30008001, 0x0000000D]
)

READBACK_GOLDEN = (
    [0xFFFFFFFF, 0x000000BB, 0x11220044, 0xFFFFFFFF, 0xAA995566,
     NOOP,
     0x30008001, 0x0000000B, NOOP,
     0x30008001, 0x00000007, NOOP,
     NOOP, NOOP, NOOP, NOOP, NOOP,
     0x30008001, 0x00000004, NOOP,
     0x30002001, 0x00000000,
     0x28006000,
     0x482BA521]
    + [NOOP] * 32
)

FOOTER_GOLDEN = [
    0x30008001, 0x0000000A, 0x20000000, 0x3000C001, 0x00000100,
    0x3000A001, 0x00000000, 0x30008001, 0x00000005, 0x20000000,
    0x30008001, 0x0000000D, 0xFFFFFFFF, 0xFFFFFFFF, 0x20000000,
    0x20000000,
]


def test_criterion_01_golden_sequences(tmp_path):
    with criterion(1, "golden command sequences, word for word", 1.0):
        wpath = tmp_path / "write.bin"
        assert main(["encode-write-frame", "--out", str(wpath)]) == 0
        assert read_sequence_file(wpath) == WRITE_FRAME_GOLDEN

        rpath = tmp_path / "readback.bin"
        assert main(["encode-readback", "--far", "0", "--count", "2860321",
                     "--out", str(rpath)]) == 0
        assert read_sequence_file(rpath) == READBACK_GOLDEN

        assert build_desync_footer().words.tolist() == FOOTER_GOLDEN


def _random_packets(rng):
    packets = [ConfigPacket.dummy() for _ in range(rng.randrange(3))]
    packets.append(ConfigPacket.sync())
    for _ in range(rng.randrange(6)):
        kind = rng.randrange(5)
        if kind == 0:
            packets.append(ConfigPacket.noop())
        elif kind == 1:
            packets.append(ConfigPacket.type1_write(
                rng.choice(list(ConfigRegister)),
                [rng.getrandbits(32) for _ in range(rng.randrange(4))]))
        elif kind == 2:
            packets.append(ConfigPacket.type1_read(
                rng.choice(list(ConfigRegister)), rng.randrange(2048)))
        elif kind == 3:
            packets.append(ConfigPacket.type2_write(
                [rng.getrandbits(32) for _ in range(rng.randrange(8))]))
        else:
            packets.append(ConfigPacket.type2_read(rng.randrange(TYPE2_MAX_COUNT)))
    return packets


def test_criterion_02_codec_round_trip():
    with criterion(2, "10,000 randomized packet lists round-trip", 5.0):
        rng = random.Random(0x5EED)
        for _ in range(10_000):
            packets = _random_packets(rng)
            assert decode_stream(encode_packets(packets)) == packets


def test_criterion_03_fabric_identity():
    with criterion(3, "exhaustive fabric write/read and flip/restore", 30.0):
        geo = desk_geometry()
        engine = ConfigEngine(geo, ZEDBOARD_IDCODE)
        rng = random.Random(3)
        for far_word in geo.far_words():
            frame = [rng.getrandbits(32) for _ in range(FRAME_WORDS)]
            write_frames(engine, far_word, [frame])
            out, _ = engine.execute(words_to_bytes(
                build_readback_sequence(far_word, 1).words))
            out = bytes_to_words(out)
            assert out[:FRAME_WORDS] == [0] * FRAME_WORDS
            assert out[FRAME_WORDS:] == frame

        target = geo.far_words()[0]
        base = snapshot_digest(engine)
        for bit in range(FRAME_WORDS * 32):
            write_flipped_bit(engine, target, bit)
            assert snapshot_digest(engine) != base
            write_flipped_bit(engine, target, bit)
            assert snapshot_digest(engine) == base


def test_criterion_04_dma_rules():
    with criterion(4, "DMA boundary, overflow and divisor rules", 1.0):
        req, dst = 0x00280000, 0x00300000

        def request(dev, n_frames):
            words = build_readback_sequence(0, n_frames).words
            dev.dram.write_words(req, words)
            dev.interface_acquire(Interface.PCAP)
            dev.dma_enqueue(req, 0xFFFFFFFF, len(words), len(words))
            dev.dma_process()

        dev = boot_device()
        dev.set_pcap_clock_divisor(SAFE_DIVISOR)
        request(dev, 9)  # 9 frames + 1 dummy = 1010 words = 4040 bytes
        dev.dma_enqueue(0xFFFFFFFF, dst, 1010, 1010)
        dev.dma_process()

        request(dev, 10)  # 1111 words would cross the 4 KB boundary
        before = snapshot_digest(dev.engine)
        dst_before = dev.dram.read_bytes(dst, 1111 * 4)
        dev.dma_enqueue(0xFFFFFFFF, dst, 1111, 1111)
        with pytest.raises(TransferError) as excinfo:
            dev.dma_process()
        assert excinfo.value.reason == "boundary"
        assert snapshot_digest(dev.engine) == before
        assert dev.dram.read_bytes(dst, 1111 * 4) == dst_before

        dev2 = boot_device()
        dev2.set_pcap_clock_divisor(SAFE_DIVISOR)
        request(dev2, 2)  # 303 words, larger than the 256-word receiver FIFO
        dev2.set_pcap_clock_divisor(1)
        assert dev2.pcap_clock_hz == 100_000_000
        dev2.dma_enqueue(0xFFFFFFFF, dst, 303, 303)
        with pytest.raises(TransferError) as excinfo:
            dev2.dma_process()
        assert excinfo.value.reason == "overflow"
        dev2.set_pcap_clock_divisor(4)
        assert dev2.pcap_clock_hz == 25_000_000
        dev2.dma_enqueue(0xFFFFFFFF, dst, 303, 303)
        dev2.dma_process()


def test_criterion_05_arbitration_trace():
    with criterion(5, "interface arbitration event trace", 1.0):
        dev = boot_device()
        dev.drain_events()
        assert dev.interface_acquire(Interface.PCAP)
        assert dev.interface_acquire(Interface.JTAG)
        assert not dev.interface_acquire(Interface.RBCRC)
        dev.interface_release_on_desync()
        assert dev.interface_acquire(Interface.RBCRC)
        assert [render_event(e) for e in dev.drain_events()] == [
            "ACQUIRE PCAP GRANTED",
            "ACQUIRE JTAG PREEMPTS PCAP",
            "ACQUIRE RBCRC IGNORED OWNER=JTAG",
            "DESYNC RELEASE JTAG",
            "ACQUIRE RBCRC GRANTED",
        ]


def _run_reference_campaign(critical_count, variant, seed):
    geo = z7020like_geometry()
    fars = geo.far_words()[:20]
    smap = sensitivity_generate(seed, fars, critical_count)
    assert smap.critical_count == critical_count
    dev = boot_device(geo)
    dut = DutModel(DutConfig(variant=variant), smap)
    runner = Campaign(dev, dut)
    before = snapshot_digest(dev.engine)
    summary, rows = runner.run_auto(fars, variant=variant)
    assert snapshot_digest(dev.engine) == before
    assert counters(dev) == (summary.critical, summary.non_critical)
    return summary, rows


def test_criterion_06_campaign_reference_totals():
    with criterion(6, "campaign totals match the reference summary", 30.0):
        with_idf, rows_idf = _run_reference_campaign(25911, "with_idf", seed=1256)
        assert with_idf.total_injections == 64640
        assert with_idf.critical == 25911
        assert with_idf.non_critical == 38729
        assert with_idf.estimated_minutes == 440.0

        without_idf, rows_no = _run_reference_campaign(26724, "without_idf",
                                                       seed=1085)
        assert without_idf.total_injections == 64640
        assert without_idf.critical == 26724
        assert without_idf.non_critical == 37916
        assert without_idf.estimated_minutes == 440.0

        for rows in (rows_idf, rows_no):
            assert len(rows) == 20
            assert all(r.injections == 3232 for r in rows)

        # stash for criterion 7
        test_criterion_06_campaign_reference_totals.result = (with_idf, without_idf)


def test_criterion_07_variant_comparison():
    cached = getattr(test_criterion_06_campaign_reference_totals, "result", None)
    if cached is None:  # run alone: the campaigns stay outside the budget
        cached = (_run_reference_campaign(25911, "with_idf", seed=1256)[0],
                  _run_reference_campaign(26724, "without_idf", seed=1085)[0])
    with criterion(7, "isolation reduces critical bits by 813 (3.0%)", 1.0):
        with_idf, without_idf = cached
        delta, pct = compare_summaries(with_idf, without_idf)
        assert delta == 813
        assert pct == pytest.approx(3.0, abs=0.1)


def test_criterion_08_dmr_properties():
    with criterion(8, "DMR detection and AES oracle agreement", 5.0):
        geo = desk_geometry()
        engine = ConfigEngine(geo, ZEDBOARD_IDCODE)
        lines = ControlLines(clk_en=1, start_0=1, start_1=1)

        empty = SensitivityMap()
        for input4 in range(16):
            result = DutModel(sensitivity_map=empty).run_check(engine, lines,
                                                               input4)
            assert result.match_line is MatchLine.LOW

        smap = sensitivity_generate(8, geo.far_words(), 200)
        module_bits = [(far, bit) for far, bit, crit in smap.iter_entries()
                       if crit in (Criticality.MODULE0, Criticality.MODULE1)]
        assert module_bits
        for far_word, bit in module_bits:
            write_flipped_bit(engine, far_word, bit)
            result = DutModel(sensitivity_map=smap).run_check(engine, lines, 5)
            assert result.match_line is MatchLine.HIGH
            write_flipped_bit(engine, far_word, bit)
        result = DutModel(sensitivity_map=smap).run_check(engine, lines, 5)
        assert result.match_line is MatchLine.LOW

        rng = random.Random(0xACE5)
        for _ in range(64):
            key = bytes(rng.randrange(256) for _ in range(32))
            block = bytes(rng.randrange(256) for _ in range(16))
            enc = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
            assert aes256_encrypt(key, block) == enc.update(block) + enc.finalize()


EXPECTED_FIXTURE_CHECKS = {
    "clean.fp": set(),
    "idf2_bank_sharing.fp": {"IDF-2"},
    "idf3_package_adjacent.fp": {"IDF-3"},
    "idf4_region_contact.fp": {"IDF-4"},
    # Adjacent occupied tiles imply adjacent region rectangles, so the
    # placement fixture necessarily carries the floorplan violation too.
    "idf5_tile_contact.fp": {"IDF-4", "IDF-5"},
    "idf6a_multi_load.fp": {"IDF-6"},
    "idf6b_fence_pip.fp": {"IDF-6"},
    "idf6c_shared_tile.fp": {"IDF-6"},
}

FENCE_ROWS = [
    (1, "horizontal", {1}),
    (2, "horizontal", {1, 2}),
    (4, "horizontal", {1, 2, 4}),
    (6, "horizontal", UNCROSSABLE),
    (1, "vertical", {1}),
    (2, "vertical", {1, 2}),
    (4, "vertical", {1, 2, 4}),
    (6, "vertical", {1, 2, 4, 6}),
    (9, "vertical", UNCROSSABLE),
]


def test_criterion_09_verifier_fixtures():
    with criterion(9, "each rule fires on its fixture, silent on clean", 1.0):
        for name, expected in sorted(EXPECTED_FIXTURE_CHECKS.items()):
            plan = parse_floorplan((FIXTURES / name).read_text())
            header, violations = run_all_checks(plan)
            assert len(header) == 7
            assert {v.check for v in violations} == expected, name
        for width, orientation, expected in FENCE_ROWS:
            result = fence_consequence(width, orientation)
            if expected is UNCROSSABLE:
                assert result is UNCROSSABLE
            else:
                assert result == frozenset(expected)


# Reference overhead summary rows whose values follow from the utilization
# inputs: (site, reserved-count, reference percent).  Percent tolerance is
# +/- 0.15 absolute to absorb the source report's rounding.
OVERHEAD_REFERENCE = [
    ("Slice LUTs", 1260, 2.3),
    ("LUT as Memory", 328, 1.8),
    ("LUT as Distributed RAM", 0, 0.0),
    ("LUT as Shift Register", 0, 0.0),
    ("Slice Registers", 2520, 2.3),
    ("F7 Muxes", 630, 2.3),
    ("F8 Muxes", 315, 2.3),
    ("DSPs", 20, 9.0),
    ("Bonded IOB", 8, 4.0),
    ("OUT_FIFO", 4, 25.0),
    ("IN_FIFO", 4, 3.17),
    ("IBUFDS", 8, 4.16),
    ("OLOGIC", 8, 4.0),
    ("ILOGIC", 8, 4.0),
    ("IDELAYE2/IDELAYE2_FINEDELAY", 8, 4.0),
    ("MMCME2_ADV", 2, 50.0),
    ("PLLE2_ADV", 2, 50.0),
]


def test_criterion_10_overhead_report():
    with criterion(10, "overhead report reproduces the reference summary", 1.0):
        without = parse_utilization(
            (FIXTURES / "utilization_without_idf.csv").read_text())
        with_ = parse_utilization(
            (FIXTURES / "utilization_with_idf.csv").read_text())
        rows, warnings = overhead_diff(without, with_)
        assert warnings == []
        by_site = {r.site_type: r for r in rows}

        for site, count, percent in OVERHEAD_REFERENCE:
            row = by_site[site]
            assert row.overhead == count, site
            assert row.percent == pytest.approx(percent, abs=0.15), site

        # The source summary's four remaining values contradict its own
        # utilization inputs; the availability-delta arithmetic is asserted
        # here and the printed figures are reproduced from the used columns
        # they were actually derived from.
        assert by_site["RAMB36/FIFO"].overhead == 14  # count matches
        assert by_site["RAMB36/FIFO"].percent == pytest.approx(10.0, abs=0.01)
        # (source prints 5% = 14/280, dividing by the 18Kb-unit pool)

        def used_delta(site):
            return (with_[site].used or 0) - (without[site].used or 0)

        assert by_site["LUT as Logic"].overhead == 1260
        assert used_delta("LUT as Logic") == 1  # the printed "1"
        assert by_site["Register as Flip Flop"].overhead == 2520
        assert used_delta("Register as Flip Flop") == 0  # the printed "0"
        assert by_site["Register as Latch"].overhead == 2520
        assert used_delta("Register as Latch") == 0  # the printed "0"


def test_criterion_11_interactive_transcript():
    with criterion(11, "interactive banner and menu transcript", 1.0):
        dev = boot_device()
        dut = DutModel(DutConfig(), SensitivityMap())
        out = io.StringIO()
        status = interactive_session(io.StringIO("5\n0\n"), out, dev, dut,
                                     desk_geometry().far_words())
        assert status == 0
        lines = out.getvalue().splitlines()
        assert tuple(lines[:7]) == BANNER_LINES
        assert tuple(lines[7:14]) == MENU_LINES
        assert lines[14] == PROMPT_LINE
        assert tuple(lines[15:22]) == MENU_LINES  # command 5 reprints it
        assert lines[22] == PROMPT_LINE
