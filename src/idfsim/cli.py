"""Command-line front end.

`idfsim interactive` reproduces the operator's serial-terminal menu; the
batch subcommands cover campaigns, floorplan verification, sequence
encoding/decoding and report arithmetic.

Exit codes: 0 success, 1 violations or detected regression, 2 usage error,
3 I/O, parse or device error.
"""

import argparse
import datetime
import getpass
import os
import platform as platform_mod
import socket
import sys

from . import __version__, campaign as campaign_mod, devc, verifier
from .dut import DutModel, SensitivityMap, sensitivity_generate
from .fabric import FRAME_WORDS, load_geometry
from .packets import (
    DUMMY_WORD,
    ZEDBOARD_IDCODE,
    build_desync_footer,
    build_readback_sequence,
    build_write_frame_sequence,
    bytes_to_words,
    decode_stream,
    describe_packet,
    read_sequence_file,
    write_sequence_file,
)

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_IO = 3

BANNER_LINES = (
    "--- IDF Evaluation using PCAP ---",
    "*** Initializing the Program ***",
    "** Uploading Frame @:00200000**",
    "* Upload Finished*",
    "",
    "Clock Enabled",
    "",
)

MENU_LINES = (
    "*** Command Menu ***",
    "0: Exit",
    "1: Read Frame",
    "2: Write Frame",
    "3: Check PL Design",
    "4: Start Automated PL-Error Injection",
    "5: Print this menu",
)

PROMPT_LINE = "*** Enter Command ***"


def hex_dump(words, out):
    """8 words per line, lowercase, 0x prefixed (frozen format)."""
    for i in range(0, len(words), 8):
        out.write(" ".join(f"0x{w:08x}" for w in words[i:i + 8]) + "\n")


def _parse_word(text):
    value = int(text, 16)
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"{text!r} does not fit 32 bits")
    return value


def _parse_frame_range(selection, geometry):
    """Frame index selection over the geometry's FAR enumeration order.

    Accepts `all`, single indices, and inclusive ranges: `0-19`, `0,5,7-9`.
    A frame may be named only once.
    """
    far_words = geometry.far_words()
    if selection == "all":
        return far_words
    picked = {}  # frame index -> FAR, in selection order
    for part in selection.split(","):
        part = part.strip()
        if not part:
            continue
        lo, dash, hi = part.partition("-")
        try:
            lo = int(lo)
            hi = int(hi) if dash else lo
        except ValueError:
            raise ValueError(f"frame selection part {part!r} is not an "
                             "index or a lo-hi range") from None
        if lo > hi or lo < 0 or hi >= len(far_words):
            raise ValueError(f"frame range {part!r} outside 0..{len(far_words) - 1}")
        for index in range(lo, hi + 1):
            if index in picked:
                raise ValueError(f"frame {index} selected more than once")
            picked[index] = far_words[index]
    if not picked:
        raise ValueError("empty frame selection")
    return list(picked.values())


def _load_map(path, geometry):
    """The map at `path`, empty without one; its FARs must fit `geometry`."""
    smap = SensitivityMap.load(path) if path else SensitivityMap()
    bad = [f for f in smap.frames if not geometry.is_valid_far(f)]
    if bad:
        raise ValueError(f"{path}: FAR 0x{bad[0]:08x} is not a frame of "
                         f"geometry {geometry.name}")
    return smap


# -- interactive session ------------------------------------------------------


def interactive_session(stdin, stdout, device, dut, far_words):
    """Operator menu loop; returns the exit status."""
    runner = campaign_mod.Campaign(device, dut)

    def say(line=""):
        stdout.write(line + "\n")

    for line in BANNER_LINES:
        say(line)
    for line in MENU_LINES:
        say(line)

    def prompt_far():
        say("Enter FAR (hex):")
        raw = stdin.readline()
        if not raw:
            return None
        text = raw.strip()
        try:
            far_word = _parse_word(text)
            if not device.geometry.is_valid_far(far_word):
                raise ValueError(far_word)
        except ValueError:
            say(f"Invalid FAR: {text!r}")
            return None
        return far_word

    while True:
        say(PROMPT_LINE)
        raw = stdin.readline()
        if not raw:
            return EXIT_OK
        choice = raw.strip()
        if choice == "0":
            return EXIT_OK
        if choice == "1":
            far_word = prompt_far()
            if far_word is None:
                continue
            try:
                frame = runner.read_frame(far_word)
            except devc.DevcError as exc:
                say(f"Read failed: {exc}")
                continue
            say(f"Frame @ FAR 0x{far_word:08x}:")
            hex_dump(bytes_to_words(frame), stdout)
        elif choice == "2":
            far_word = prompt_far()
            if far_word is None:
                continue
            runner.stage_frame(far_word)
            try:
                runner.write_template_frame()
            except devc.DevcError as exc:
                say(f"Write failed: {exc}")
                continue
            say(f"Frame written to FAR 0x{far_word:08x}")
        elif choice == "3":
            say("Match ERROR" if runner.check_design() else "Match OK")
        elif choice == "4":
            say(f"Inject over {len(far_words)} frames "
                f"({len(far_words) * FRAME_WORDS * 32} flips). Proceed? (y/n)")
            confirm = stdin.readline()
            if confirm.strip().lower() != "y":
                say("Aborted")
                continue
            summary, _rows = runner.run_auto(far_words)
            stdout.write(campaign_mod.summary_text(summary))
        elif choice == "5":
            for line in MENU_LINES:
                say(line)
        else:
            say(f"Invalid command: {choice!r}")


# -- subcommands ---------------------------------------------------------------


def _cmd_decode(args):
    words = read_sequence_file(args.file)
    packets = decode_stream(words)
    offset = 0
    for p in packets:
        header = words[offset]
        print(f"[{offset:04d}] 0x{header:08x}  {describe_packet(p)}")
        for k, w in enumerate(p.payload):
            print(f"[{offset + 1 + k:04d}] 0x{w:08x}    payload")
        offset += 1 + len(p.payload)
    return EXIT_OK


def _cmd_encode_write_frame(args):
    if args.frames < 1:
        raise ValueError("--frames must be >= 1")
    frame = [args.data_word & 0xFFFFFFFF] * FRAME_WORDS
    words = build_write_frame_sequence(args.id, args.far,
                                       [frame] * args.frames).words
    if args.footer:
        words += build_desync_footer().words
    write_sequence_file(args.out, words)
    print(f"wrote {len(words)} words to {args.out}")
    return EXIT_OK


def _cmd_encode_readback(args):
    seq = build_readback_sequence(args.far, args.frames, word_count=args.count)
    write_sequence_file(args.out, seq.words)
    print(f"wrote {len(seq.words)} words to {args.out}")
    return EXIT_OK


def _parse_file(path, parse):
    """`parse` of the text at `path`; a parse error names `path:lineno`."""
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    try:
        return parse(text)
    except (verifier.FloorplanError, campaign_mod.UtilizationError) as exc:
        raise ValueError(f"{path}:{exc.lineno}: {exc.message}") from None


def _cmd_verify_idf(args):
    plan = _parse_file(args.floorplan, verifier.parse_floorplan)
    env = {
        "tool_version": __version__,
        "date": datetime.date.today().isoformat(),
        "design": os.path.splitext(os.path.basename(args.floorplan))[0],
        "directory": os.getcwd(),
        "user": getpass.getuser(),
        "platform": platform_mod.system().lower(),
        "host": socket.gethostname(),
    }
    header, violations = verifier.run_all_checks(plan, env,
                                                 strict_banks=args.strict_banks)
    print(verifier.render_report(header, violations))
    errors = [v for v in violations if v.severity == verifier.SEVERITY_ERROR]
    return EXIT_FINDINGS if errors else EXIT_OK


def _cmd_gen_map(args):
    if args.frames < 1:
        raise ValueError("--frames must be >= 1")
    geometry = load_geometry(args.geometry)
    far_words = geometry.far_words()[:args.frames]
    if len(far_words) < args.frames:
        raise ValueError(f"geometry {geometry.name} has only {len(far_words)} frames")
    smap = sensitivity_generate(args.seed, far_words, args.critical,
                                split=tuple(args.split))
    smap.save(args.out)
    print(f"wrote {smap.critical_count} critical bits to {args.out}")
    return EXIT_OK


def _cmd_campaign(args):
    geometry = load_geometry(args.geometry)
    far_words = _parse_frame_range(args.frames, geometry)
    smap = _load_map(args.map, geometry)
    variant = "with_idf" if args.variant == "idf" else "without_idf"
    # Before the run: a bad --out fails fast, and --log may lie inside it.
    os.makedirs(args.out, exist_ok=True)
    device = devc.boot_device(geometry)
    dut = DutModel(sensitivity_map=smap)
    log = open(args.log, "w", encoding="utf-8") if args.log else None
    try:
        runner = campaign_mod.Campaign(device, dut, fail_fast=args.fail_fast,
                                       log=log)
        summary, rows = runner.run_auto(far_words, variant=variant)
    finally:
        if log is not None:
            log.close()
    text = campaign_mod.summary_text(summary)
    csv = campaign_mod.summary_csv(summary)
    _write_reports(args.out, {"frames.csv": campaign_mod.frame_rows_csv(rows),
                              "summary.txt": text, "summary.csv": csv})
    sys.stdout.write(csv if args.format == "csv" else text)
    return EXIT_FINDINGS if summary.critical else EXIT_OK


def _write_reports(out, reports):
    """Write each `{name: text}` report into `out` whole or not at all.

    Every text goes to `<name>.tmp` first, and only when all are written
    are they renamed into place, so a failure while writing changes no
    report.  The temporary files are removed on any failure: a report on
    disk is always whole.
    """
    staged = []
    try:
        for name, text in reports.items():
            tmp = os.path.join(out, name + ".tmp")
            staged.append(tmp)
            with open(tmp, "w", encoding="utf-8") as f:
                f.write(text)
        for name, tmp in zip(reports, staged):
            os.replace(tmp, os.path.join(out, name))
    finally:
        for tmp in staged:
            if os.path.exists(tmp):
                os.remove(tmp)


def _cmd_overhead(args):
    without = _parse_file(args.without_idf, campaign_mod.parse_utilization)
    with_ = _parse_file(args.with_idf, campaign_mod.parse_utilization)
    rows, warnings = campaign_mod.overhead_diff(without, with_)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.format == "csv":
        sys.stdout.write(campaign_mod.overhead_csv(rows))
    else:
        for row in rows:
            print(f"{row.site_type}: {row.overhead} ({row.percent:.1f}%)")
    return EXIT_OK


def _cmd_interactive(args):
    geometry = load_geometry(args.geometry)
    smap = _load_map(args.map, geometry)
    device = devc.boot_device(geometry)
    dut = DutModel(sensitivity_map=smap)
    far_words = _parse_frame_range(args.frames, geometry)
    return interactive_session(sys.stdin, sys.stdout, device, dut, far_words)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="idfsim",
        description="Configuration-path simulator: packet codec, PCAP device "
                    "model, fault campaigns and isolation rule checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decode", help="pretty-print a binary sequence file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("encode-write-frame",
                       help="emit a frame-write command sequence")
    p.add_argument("--id", type=_parse_word, default=ZEDBOARD_IDCODE)
    p.add_argument("--far", type=_parse_word, default=DUMMY_WORD)
    p.add_argument("--data-word", type=_parse_word, default=DUMMY_WORD)
    p.add_argument("--frames", type=int, default=1)
    p.add_argument("--footer", action="store_true",
                   help="append the de-synchronization footer")
    p.add_argument("--out", default="write_frame.bin")
    p.set_defaults(func=_cmd_encode_write_frame)

    p = sub.add_parser("encode-readback",
                       help="emit a read-back request sequence")
    p.add_argument("--far", type=_parse_word, default=0)
    p.add_argument("--frames", type=int, default=1)
    p.add_argument("--count", type=int, default=None,
                   help="override the Type-2 word count verbatim")
    p.add_argument("--out", default="readback.bin")
    p.set_defaults(func=_cmd_encode_readback)

    p = sub.add_parser("verify-idf", help="run isolation rule checks")
    p.add_argument("floorplan")
    p.add_argument("--strict-banks", action="store_true",
                   help="treat shared-bank pins as errors, not warnings")
    p.set_defaults(func=_cmd_verify_idf)

    p = sub.add_parser("gen-map", help="generate a sensitivity map fixture")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the generated map (default 0)")
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--critical", type=int, required=True)
    p.add_argument("--geometry", default="desk")
    p.add_argument("--split", type=float, nargs=3, default=(0.45, 0.45, 0.10),
                   metavar=("M0", "M1", "CMP"))
    p.add_argument("--out", default="sensitivity.map")
    p.set_defaults(func=_cmd_gen_map)

    p = sub.add_parser("campaign", help="run an automatic injection campaign")
    p.add_argument("--variant", choices=("idf", "noidf"), required=True)
    p.add_argument("--geometry", default="desk")
    p.add_argument("--map", help="sensitivity map file")
    p.add_argument("--frames", default="all",
                   help="frame index selection, e.g. 0-19 (default all)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--fail-fast", action="store_true")
    p.add_argument("--log", help="write the device event log to a file")
    p.add_argument("--format", choices=("text", "csv"), default="text",
                   help="report output format")
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser("overhead", help="diff two utilization reports")
    p.add_argument("without_idf")
    p.add_argument("with_idf")
    p.add_argument("--format", choices=("text", "csv"), default="text",
                   help="report output format")
    p.set_defaults(func=_cmd_overhead)

    p = sub.add_parser("interactive", help="operator menu (serial-style)")
    p.add_argument("--geometry", default="desk")
    p.add_argument("--map", help="sensitivity map file")
    p.add_argument("--frames", default="all")
    p.set_defaults(func=_cmd_interactive)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (devc.DevcError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
