import hashlib
import io
import os
import shlex
import shutil
import sys
from pathlib import Path

import pytest

from conftest import write_flipped_bit
from idfsim.cli import (
    BANNER_LINES,
    EXIT_FINDINGS,
    EXIT_IO,
    EXIT_OK,
    MENU_LINES,
    PROMPT_LINE,
    build_parser,
    hex_dump,
    interactive_session,
    main,
)
from idfsim import campaign as campaign_mod
from idfsim.campaign import READBACK_REQ_ADDR, TEMPLATE_ADDR
from idfsim.devc import boot_device
from idfsim.dut import Criticality, DutModel, SensitivityMap
from idfsim.fabric import FRAME_BYTES, ZERO_FRAME, desk_geometry, snapshot_digest
from idfsim.packets import read_sequence_file

FIXTURES = Path(__file__).parent / "fixtures"


def _session(stdin_text, smap=None):
    dev = boot_device()
    dut = DutModel(sensitivity_map=smap)
    out = io.StringIO()
    status = interactive_session(io.StringIO(stdin_text), out, dev, dut,
                                 desk_geometry().far_words())
    return status, out.getvalue()


@pytest.fixture
def corrupt_after_init(monkeypatch):
    """`corrupt_after_init(addr, word)` overwrites one DRAM word of every
    device right after `campaign_init` loads the resident streams."""
    real = campaign_mod.campaign_init

    def install(addr, word):
        def corrupted(device):
            sizes = real(device)
            device.dram.write_word(addr, word)
            return sizes

        monkeypatch.setattr(campaign_mod, "campaign_init", corrupted)

    return install


# The request's RCFG command and the template's IDCODE value.
REQ_RCFG_ADDR = READBACK_REQ_ADDR + 4 * 18
TPL_IDCODE_ADDR = TEMPLATE_ADDR + 4 * 4


class TestInteractiveSession:
    def test_banner_and_menu_verbatim(self):
        status, output = _session("0\n")
        lines = output.splitlines()
        assert tuple(lines[:7]) == BANNER_LINES
        assert tuple(lines[7:14]) == MENU_LINES
        assert lines[14] == PROMPT_LINE
        assert status == EXIT_OK

    def test_menu_printed_twice_for_5(self):
        status, output = _session("5\n0\n")
        assert status == EXIT_OK
        assert output.count("*** Command Menu ***") == 2
        assert output.count("5: Print this menu") == 2

    def test_eof_exits_cleanly(self):
        status, output = _session("")
        assert status == EXIT_OK

    def test_invalid_command_reprompts(self):
        status, output = _session("9\nbogus\n0\n")
        assert status == EXIT_OK
        assert output.count(PROMPT_LINE) == 3
        assert "Invalid command" in output

    def test_check_design_match_ok(self):
        status, output = _session("3\n0\n")
        assert "Match OK" in output

    def test_check_design_match_error_with_fault(self):
        smap = SensitivityMap()
        smap.add(0, 0, Criticality.COMPARATOR)
        dev = boot_device()
        dut = DutModel(sensitivity_map=smap)
        dut.capture_baseline(dev.engine)
        write_flipped_bit(dev.engine, 0, 0)
        out = io.StringIO()
        interactive_session(io.StringIO("3\n0\n"), out, dev, dut,
                            desk_geometry().far_words())
        assert "Match ERROR" in out.getvalue()

    def test_read_frame_hex_dump(self):
        status, output = _session("1\n0x00000000\n0\n")
        assert "Frame @ FAR 0x00000000:" in output
        dump_lines = [l for l in output.splitlines() if l.startswith("0x")]
        assert len(dump_lines) == 13  # 12 lines of 8 + 1 of 5
        assert dump_lines[0] == " ".join(["0x00000000"] * 8)

    def test_malformed_far_reprompts(self):
        status, output = _session("1\nnot-hex\n0\n")
        assert status == EXIT_OK
        assert "Invalid FAR" in output

    def test_write_frame(self):
        status, output = _session("2\n0x00000001\n0\n")
        assert "Frame written to FAR 0x00000001" in output

    def test_eof_at_the_far_prompt_exits_cleanly(self):
        status, output = _session("1\n")
        assert status == EXIT_OK
        assert output.endswith(f"{PROMPT_LINE}\nEnter FAR (hex):\n{PROMPT_LINE}\n")

    def test_far_outside_the_geometry_reprompts(self):
        status, output = _session("2\n0x00020000\n0\n")  # row 1; desk has one
        assert status == EXIT_OK
        assert output.endswith("Enter FAR (hex):\nInvalid FAR: '0x00020000'\n"
                               f"{PROMPT_LINE}\n")

    @pytest.mark.parametrize("far", ["0x100000000", "-0x1"])
    def test_far_outside_32_bits_reprompts(self, far):
        status, output = _session(f"1\n{far}\n0\n")
        assert status == EXIT_OK
        assert output.endswith(f"Enter FAR (hex):\nInvalid FAR: '{far}'\n"
                               f"{PROMPT_LINE}\n")

    def test_write_frame_then_check_design(self):
        # The baseline holds a set comparator bit at FAR 1; writing the zero
        # template there clears it, and the next check reports the change.
        smap = SensitivityMap()
        smap.add(1, 0, Criticality.COMPARATOR)
        dev = boot_device()
        write_flipped_bit(dev.engine, 1, 0)
        dut = DutModel(sensitivity_map=smap)
        out = io.StringIO()
        interactive_session(io.StringIO("3\n2\n0x00000001\n3\n0\n"), out,
                            dev, dut, desk_geometry().far_words())
        assert dev.engine.memory.get(1, ZERO_FRAME) == bytes(FRAME_BYTES)
        assert [line for line in out.getvalue().splitlines()
                if line.startswith("Match")] == ["Match OK", "Match ERROR"]

    @pytest.mark.parametrize("choice, addr, reply", [
        ("1", REQ_RCFG_ADDR, "Read failed: configuration engine rejected "
         "the stream: fdro_without_rcfg"),
        ("2", TPL_IDCODE_ADDR, "Write failed: configuration engine rejected "
         "the stream: idcode_mismatch got=0x00000000, fdri_rejected_idcode, "
         "fdri_rejected_idcode"),  # the zero-count FDRI header and its Type-2
    ], ids=["read", "write"])
    def test_rejected_stream_reported(self, corrupt_after_init, choice, addr,
                                      reply):
        corrupt_after_init(addr, 0)
        status, output = _session(f"{choice}\n0x00000001\n0\n")
        assert status == EXIT_OK
        assert reply in output.splitlines()

    def test_campaign_confirmation_declined(self):
        status, output = _session("4\nn\n0\n")
        assert "Aborted" in output

    def test_campaign_confirmed_prints_the_summary(self):
        smap = SensitivityMap()
        smap.add(0, 0, Criticality.MODULE0)
        dev = boot_device()
        before = snapshot_digest(dev.engine)
        out = io.StringIO()
        status = interactive_session(io.StringIO("4\ny\n0\n"), out, dev,
                                     DutModel(sensitivity_map=smap), [0])
        assert status == EXIT_OK
        assert out.getvalue().endswith(
            "Inject over 1 frames (3232 flips). Proceed? (y/n)\n"
            "Injection Type: Frame Errors (With IDF)\n"
            "Total Injections: 3232\n"
            "Non-critical bits (no error): 3231\n"
            "Critical bits (error detected): 1\n"
            "Estimated testing time (min): 22\n"
            f"{PROMPT_LINE}\n")
        assert snapshot_digest(dev.engine) == before


@pytest.mark.parametrize("frames, reply", [
    ("0,,1", "Inject over 2 frames (6464 flips). Proceed? (y/n)"),
    ("16-18", "error: frame range '16-18' outside 0..17"),
    (",", "error: empty frame selection"),
    ("3-", "error: frame selection part '3-' is not an index or a lo-hi range"),
    ("-2", "error: frame selection part '-2' is not an index or a lo-hi range"),
    ("x", "error: frame selection part 'x' is not an index or a lo-hi range"),
], ids=["empty_part_skipped", "range_outside", "nothing_selected",
        "open_range", "negative", "not_a_number"])
def test_interactive_frame_selection(monkeypatch, capsys, frames, reply):
    monkeypatch.setattr(sys, "stdin", io.StringIO("4\nn\n0\n"))
    status = main(["interactive", "--frames", frames])
    captured = capsys.readouterr()
    if reply.startswith("error: "):
        assert (status, captured.out, captured.err) == (EXIT_IO, "", reply + "\n")
    else:
        assert status == EXIT_OK
        assert reply in captured.out.splitlines()


def test_interactive_command(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("0\n"))
    assert main(["interactive", "--frames", "0"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        *BANNER_LINES, *MENU_LINES, PROMPT_LINE]


def test_hex_dump_format():
    out = io.StringIO()
    hex_dump(list(range(10)), out)
    lines = out.getvalue().splitlines()
    assert lines[0] == ("0x00000000 0x00000001 0x00000002 0x00000003 "
                        "0x00000004 0x00000005 0x00000006 0x00000007")
    assert lines[1] == "0x00000008 0x00000009"


class TestEncodeCommands:
    def test_encode_write_frame_default_is_reference(self, tmp_path):
        out = tmp_path / "w.bin"
        assert main(["encode-write-frame", "--out", str(out)]) == EXIT_OK
        words = read_sequence_file(out)
        assert len(words) == 215
        assert words[4] == 0x23727093

    def test_encode_readback_frames_1(self, tmp_path):
        out = tmp_path / "r.bin"
        assert main(["encode-readback", "--frames", "1", "--far", "0",
                     "--out", str(out)]) == EXIT_OK
        words = read_sequence_file(out)
        # request stream asking for (1+1)*101 = 202 words
        from idfsim.packets import PacketKind, decode_stream
        type2 = [p for p in decode_stream(words) if p.kind is PacketKind.TYPE2]
        assert type2[0].word_count == 202

    def test_encode_readback_count_override(self, tmp_path):
        out = tmp_path / "r.bin"
        main(["encode-readback", "--count", "2860321", "--out", str(out)])
        assert 0x482BA521 in read_sequence_file(out)

    def test_write_frame_needs_a_frame(self, tmp_path, capsys):
        out = tmp_path / "w.bin"
        assert main(["encode-write-frame", "--frames", "0",
                     "--out", str(out)]) == EXIT_IO
        assert capsys.readouterr().err == "error: --frames must be >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--id", "--far", "--data-word"])
    def test_word_outside_32_bits_is_a_usage_error(self, tmp_path, capsys,
                                                   flag):
        out = tmp_path / "w.bin"
        with pytest.raises(SystemExit) as excinfo:
            main(["encode-write-frame", flag, "0x100000080", "--out", str(out)])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument {flag}: invalid _parse_word value: "
            "'0x100000080'\n")
        assert not out.exists()

    def test_footer_flag(self, tmp_path):
        out = tmp_path / "w.bin"
        main(["encode-write-frame", "--footer", "--out", str(out)])
        words = read_sequence_file(out)
        assert len(words) == 215 + 16
        assert words[-5:] == [0x0000000D, 0xFFFFFFFF, 0xFFFFFFFF,
                              0x20000000, 0x20000000]


# sha256 of the sequence files the encoders wrote when the builders still
# returned word lists: the stream representation must not change a byte.
@pytest.mark.parametrize("argv, sha256", [
    (["encode-write-frame"],
     "e8adcfc06725912d7bd8617634a5c04217a98ed0143aa3df13efa06c79618c1b"),
    (["encode-write-frame", "--footer"],
     "eafcc3ed3223cbabed429574da0d553a90760c6d4d01edad21bbef6a24f2c924"),
    (["encode-write-frame", "--frames", "3", "--far", "0x00400100",
      "--data-word", "0x12345678", "--footer"],
     "1f526632b733b2b4aaed7b24103df7d39223ae6b00b38f9540e3c98a547b2c17"),
    (["encode-readback", "--frames", "9", "--far", "0x80"],
     "ea5a1c4a80809f48f004eee9279348de96741a69884869382bbeeb1670795a46"),
], ids=["write", "write_footer", "write_3_frames_footer", "readback_9"])
def test_sequence_files_pinned(tmp_path, capsys, argv, sha256):
    out = tmp_path / "seq.bin"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
    words = len(out.read_bytes()) // 4
    assert capsys.readouterr().out == f"wrote {words} words to {out}\n"


class TestDecodeCommand:
    def test_decode_output(self, tmp_path, capsys):
        seq = tmp_path / "w.bin"
        main(["encode-write-frame", "--out", str(seq)])
        capsys.readouterr()
        assert main(["decode", str(seq)]) == EXIT_OK
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "[0000] 0xffffffff  dummy"
        assert lines[1] == "[0001] 0xaa995566  sync"
        assert lines[2] == "[0002] 0x20000000  noop"
        assert "type1 write IDCODE count=1" in lines[3]

    def test_decode_missing_file_is_io_error(self, capsys):
        assert main(["decode", "/nonexistent/file.bin"]) == EXIT_IO

    @pytest.mark.parametrize("data,message", [
        (bytes(5), "word 1: byte length is not a multiple of 4"),
        (bytes.fromhex("aa995566 70000000"), "word 1: unknown word 0x70000000"),
    ], ids=["ragged_length", "unknown_word"])
    def test_decode_error_names_the_file(self, tmp_path, capsys, data, message):
        seq = tmp_path / "bad.bin"
        seq.write_bytes(data)
        assert main(["decode", str(seq)]) == EXIT_IO
        assert capsys.readouterr().err == f"error: {seq}: {message}\n"


class TestVerifyIdf:
    def test_clean_exit_zero(self, capsys):
        assert main(["verify-idf", str(FIXTURES / "clean.fp")]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("IDF-1|info|provenance|")

    def test_violations_exit_one(self, capsys):
        assert main(["verify-idf",
                     str(FIXTURES / "idf4_region_contact.fp")]) == EXIT_FINDINGS
        assert "IDF-4|error|" in capsys.readouterr().out

    def test_bank_warning_is_not_an_error(self, capsys):
        assert main(["verify-idf",
                     str(FIXTURES / "idf2_bank_sharing.fp")]) == EXIT_OK
        assert "IDF-2|warning|" in capsys.readouterr().out

    def test_strict_banks_flag(self):
        assert main(["verify-idf", "--strict-banks",
                     str(FIXTURES / "idf2_bank_sharing.fp")]) == EXIT_FINDINGS

    def test_parse_error_exit_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.fp"
        bad.write_text("DEVICE x y\n")
        assert main(["verify-idf", str(bad)]) == EXIT_IO

    def test_parse_error_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.fp"
        bad.write_text("# header\nDEVICE 4 4\nTILE 1 1 CLB\nTILE 1 4 CLB\n")
        assert main(["verify-idf", str(bad)]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}:4: tile (1,4) outside grid\n"


class TestGenMapAndCampaign:
    def test_gen_map(self, tmp_path, capsys):
        out = tmp_path / "m.map"
        assert main(["gen-map", "--seed", "9", "--frames", "4",
                     "--critical", "100", "--out", str(out)]) == EXIT_OK
        text = out.read_text()
        assert sum(1 for l in text.splitlines() if not l.startswith("#")) == 100

    def test_gen_map_too_many_frames(self, tmp_path):
        out = tmp_path / "m.map"
        for frames in ("99", "-3", "0"):  # desk has 18 frames
            assert main(["gen-map", "--frames", frames, "--critical", "1",
                         "--out", str(out)]) == EXIT_IO
        assert not out.exists()

    @pytest.mark.parametrize("split", [["0", "0", "0"], ["-1", "1", "1"]])
    def test_gen_map_bad_split(self, tmp_path, capsys, split):
        out = tmp_path / "m.map"
        assert main(["gen-map", "--frames", "1", "--critical", "10",
                     "--split", *split, "--out", str(out)]) == EXIT_IO
        assert "error: split" in capsys.readouterr().err
        assert not out.exists()

    def test_campaign_writes_reports(self, tmp_path, capsys):
        mp = tmp_path / "m.map"
        main(["gen-map", "--seed", "3", "--frames", "1", "--critical", "5",
              "--out", str(mp)])
        outdir = tmp_path / "run"
        status = main(["campaign", "--variant", "idf", "--map", str(mp),
                       "--frames", "0-0", "--out", str(outdir)])
        assert status == EXIT_FINDINGS  # critical bits were detected
        frames = (outdir / "frames.csv").read_text().splitlines()
        assert frames[0] == "far,injections,critical,non_critical"
        assert frames[1] == "0x00000000,3232,5,3227"
        assert "Total Injections: 3232" in (outdir / "summary.txt").read_text()

    def test_campaign_no_criticals_exit_zero(self, tmp_path):
        outdir = tmp_path / "run"
        status = main(["campaign", "--variant", "noidf", "--frames", "1-1",
                       "--out", str(outdir)])
        assert status == EXIT_OK


    def test_frame_named_twice_is_rejected(self, tmp_path, capsys):
        # Running frame 1 twice would write its FAR twice to frames.csv and
        # count its critical bits twice.
        outdir = tmp_path / "run"
        status = main(["campaign", "--variant", "noidf", "--frames", "0-1,1",
                       "--out", str(outdir)])
        assert status == EXIT_IO
        assert "frame 1 selected more than once" in capsys.readouterr().err
        assert not (outdir / "frames.csv").exists()

    @pytest.mark.parametrize("flags, failing, message", [
        ([], {4, 5}, "error: restore of FAR 0x00000000 failed twice"),
        (["--fail-fast"], {3}, "error: injected fault at DMA 3")],
        ids=["restore_fails_twice", "fail_fast"])
    def test_device_error_exit_three(self, tmp_path, capsys, fail_dma_calls,
                                     flags, failing, message):
        fail_dma_calls(failing)
        outdir = tmp_path / "run"
        status = main(["campaign", "--variant", "idf", "--frames", "0",
                       "--out", str(outdir), *flags])
        assert status == EXIT_IO
        assert capsys.readouterr().err.startswith(message)
        assert list(outdir.iterdir()) == []

    def test_rejected_template_exit_three(self, tmp_path, capsys,
                                          corrupt_after_init):
        # The fault write and the restore stream the same template, so the
        # restore fails twice and the campaign stops.
        corrupt_after_init(TPL_IDCODE_ADDR, 0)
        outdir = tmp_path / "run"
        status = main(["campaign", "--variant", "idf", "--frames", "0",
                       "--out", str(outdir)])
        assert status == EXIT_IO
        assert capsys.readouterr().err.startswith(
            "error: restore of FAR 0x00000000 failed twice: configuration "
            "engine rejected the stream: idcode_mismatch got=0x00000000")
        assert list(outdir.iterdir()) == []

    @pytest.mark.parametrize("command", [
        ["campaign", "--variant", "idf", "--out", "run"], ["interactive"]],
        ids=["campaign", "interactive"])
    def test_map_far_outside_geometry(self, tmp_path, capsys, monkeypatch,
                                      command):
        # Minor 4 of column 0 and row 24 are no frames of desk; the map
        # lists them in FAR order, and the first one is named.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "m.map").write_text("0x00000000 0 module0\n"
                                        "0x00300000 1 module1\n"
                                        "0x00000004 2 comparator\n")
        status = main([*command, "--map", "m.map"])
        assert status == EXIT_IO
        assert capsys.readouterr().err == (
            "error: m.map: FAR 0x00000004 is not a frame of geometry desk\n")
        assert not (tmp_path / "run").exists()

    def test_out_that_is_a_file_fails_before_the_run(self, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        log = tmp_path / "run.log"
        status = main(["campaign", "--variant", "idf", "--frames", "0",
                       "--out", str(taken), "--log", str(log)])
        assert status == EXIT_IO
        assert not log.exists()  # no device was booted, nothing ran

    def test_log_inside_new_out(self, tmp_path):
        outdir = tmp_path / "run"
        status = main(["campaign", "--variant", "idf", "--frames", "0",
                       "--out", str(outdir), "--log", str(outdir / "run.log")])
        assert status == EXIT_OK
        assert sorted(p.name for p in outdir.iterdir()) == [
            "frames.csv", "run.log", "summary.csv", "summary.txt"]
        assert "DMA PS2PL DONE" in (outdir / "run.log").read_text()


_REPORTS = ("frames.csv", "summary.txt", "summary.csv")


@pytest.mark.parametrize("fail_at", ["write", "replace"])
def test_campaign_reports_are_never_half_written(tmp_path, monkeypatch, fail_at):
    """A failure after the reports are rendered leaves each report either
    as it was or whole, and no temporary file behind."""
    argv = ["campaign", "--variant", "idf", "--frames", "0-1", "--out"]
    fresh = tmp_path / "fresh"
    assert main([*argv, str(fresh)]) == EXIT_OK
    new = {name: (fresh / name).read_bytes() for name in _REPORTS}
    outdir = tmp_path / "out"
    outdir.mkdir()
    for name in _REPORTS:
        (outdir / name).write_bytes(b"old " + name.encode())
    real_open, real_replace = open, os.replace
    calls = []

    def failing_open(path, mode="r", **kwargs):
        f = real_open(path, mode, **kwargs)
        if path.endswith(".tmp"):
            calls.append(path)
            if len(calls) == 2:
                with f:
                    f.write("half a report")
                raise OSError(28, "No space left on device")
        return f

    def failing_replace(src, dst):
        calls.append(dst)
        if len(calls) == 2:
            raise OSError(28, "No space left on device")
        real_replace(src, dst)

    if fail_at == "write":
        monkeypatch.setattr("idfsim.cli.open", failing_open, raising=False)
    else:
        monkeypatch.setattr("idfsim.cli.os.replace", failing_replace)
    assert main([*argv, str(outdir)]) == EXIT_IO
    assert sorted(p.name for p in outdir.iterdir()) == sorted(_REPORTS)
    got = {name: (outdir / name).read_bytes() for name in _REPORTS}
    old = {name: b"old " + name.encode() for name in _REPORTS}
    if fail_at == "write":
        assert got == old  # no report was touched
    else:  # the first rename landed, the rest did not
        assert got == {**old, "frames.csv": new["frames.csv"]}


# sha256 of the reference run's outputs, pinned when frames were still word
# lists: a change to the PCAP path must leave every byte as it was.
REFERENCE_OUTPUT_SHA256 = {
    "frames.csv": "433f847b9f16f6d64448b6de3f6ab4d07884e6d7b19e0adecccdffe83ac5fea1",
    "summary.txt": "a26f0c79924cf9e62efd48a41063d737115aa751f19c1cbe250b99e5dcc604c2",
    "summary.csv": "34225266c965a3112cc7abb7810fb538d8f719b8585e0004a3b12e8da20c2324",
    "run.log": "f9b0bc474876102f8fca4d82848f428286ea06e7321e93bc70e8d2a06123535b",
}


def test_reference_campaign_outputs_pinned(tmp_path, capsys):
    mp = tmp_path / "ref.map"
    assert main(["gen-map", "--geometry", "z7020like", "--seed", "7",
                 "--frames", "20", "--critical", "25911",
                 "--out", str(mp)]) == EXIT_OK
    outdir = tmp_path / "out"
    log = tmp_path / "run.log"
    status = main(["campaign", "--variant", "idf", "--geometry", "z7020like",
                   "--map", str(mp), "--frames", "0-1", "--out", str(outdir),
                   "--log", str(log)])
    assert status == EXIT_FINDINGS
    files = {name: outdir / name for name in ("frames.csv", "summary.txt",
                                               "summary.csv")}
    files["run.log"] = log
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
               for name, path in files.items()}
    assert digests == REFERENCE_OUTPUT_SHA256
    assert len(log.read_text().splitlines()) == 129_282


class TestOverheadCommand:
    def test_reference_row(self, capsys):
        status = main(["overhead",
                       str(FIXTURES / "utilization_without_idf.csv"),
                       str(FIXTURES / "utilization_with_idf.csv"),
                       "--format", "csv"])
        assert status == EXIT_OK
        out = capsys.readouterr().out
        assert "Slice LUTs,1260,2.4" in out
        assert "OUT_FIFO,4,25.0" in out
        assert "MMCME2_ADV,2,50.0" in out

    def test_warnings_go_to_stderr(self, tmp_path, capsys):
        without = tmp_path / "without.csv"
        with_ = tmp_path / "with.csv"
        without.write_text("X,1,0,10\nY,1,0,10\n")
        with_.write_text("X,1,0,12\n")
        assert main(["overhead", str(without), str(with_)]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == "X: -2 (-20.0%)\n"
        assert captured.err == (
            "warning: site 'X': negative overhead: inconsistent input data\n"
            "warning: site 'Y' missing from one report; skipped\n")

    def test_repeated_site_is_refused(self, tmp_path, capsys):
        without = tmp_path / "without.csv"
        with_ = tmp_path / "with.csv"
        without.write_text("Slice LUTs,1,0,100\nSlice LUTs,1,0,90\n")
        with_.write_text("Slice LUTs,1,0,80\n")
        assert main(["overhead", str(without), str(with_)]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {without}:2: site 'Slice LUTs' repeats line 1\n")

    def test_bad_line_names_its_report(self, tmp_path, capsys):
        without = tmp_path / "without.csv"
        with_ = tmp_path / "with.csv"
        without.write_text("Slice LUTs,1,0,100\n")
        with_.write_text("# site,used,fixed,available\nSlice LUTs,1,0\n")
        assert main(["overhead", str(without), str(with_)]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {with_}:2: expected 4 fields, got 3\n"

    def test_text_format(self, capsys):
        main(["overhead",
              str(FIXTURES / "utilization_without_idf.csv"),
              str(FIXTURES / "utilization_with_idf.csv")])
        assert "Slice LUTs: 1260 (2.4%)" in capsys.readouterr().out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2


def _readme_console():
    """The lines of README's "Command line" console block, joined across
    backslash continuations."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```console", 1)[1]
    return block.split("```", 1)[0].replace("\\\n", " ").splitlines()


def _readme_commands():
    """Arguments of each `$ idfsim ...` line in README's "Command line"
    block."""
    return [shlex.split(line, comments=True)[2:]
            for line in _readme_console() if line.startswith("$ idfsim ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda a: a[0])
def test_readme_commands_parse(argv):
    build_parser().parse_args(argv)


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # Each line in order, in a scratch directory that holds a copy of the
    # fixtures the lines name.  The campaign finds critical bits: exit 1.
    shutil.copytree(FIXTURES, tmp_path / "tests" / "fixtures")
    monkeypatch.chdir(tmp_path)
    lines = _readme_console()
    at = next(i for i, line in enumerate(lines)
              if line.startswith("$ idfsim decode rb.bin"))
    shown = lines[at + 1:lines.index("...", at)]
    assert len(shown) == 3
    for argv in _readme_commands():
        expected = EXIT_FINDINGS if argv[0] == "campaign" else EXIT_OK
        assert main(argv) == expected, argv
        out = capsys.readouterr().out
        if argv == ["decode", "rb.bin"]:
            assert out.splitlines()[:3] == shown
