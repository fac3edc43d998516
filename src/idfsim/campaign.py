"""Fault-injection campaign driver and report arithmetic.

An injection cycle follows the PS-side procedure exactly: stop the module
clocks, read the target frame back over PCAP into DRAM, stage it with one
bit flipped, write it back, restart the clocks, pulse the start lines,
sample the match line, then restore the frame from the read-back it holds.
DRAM keeps two counters, detected errors at 0xFFFF0000 and error-free
injections at 0xFFFF0008; `run_auto` reads each frame's counts from them.

The frame write reuses a resident template: one full frame-write command
sequence, uploaded to DRAM at 0x00200000 during campaign initialization.
It has no desync footer, which its own closing DESYNC would leave unread.
Injections patch the FAR payload and the 101 data words in place and
stream the whole template to the PL.  The restore writes the held
read-back over all 101 data words, not just the flipped bit, so the frame
goes back as it was read even if the staged copy changed in DRAM.

The read-back request is resident the same way: the one-frame
`build_readback_sequence` plus a closing DESYNC command, 58 words uploaded
to 0x00280000 during initialization.  Each read patches its FAR payload
in place and streams it to the PL.  The DESYNC leaves the engine out of
sync before the template arrives, so the template's SYNC word syncs it
afresh; it also releases PCAP, which is acquired again to drain the
read-back data.
"""

import csv
import io
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from . import devc
from .devc import PL_ADDR, DevcError, Interface, TransferError
from .dut import (
    ControlLines,
    MatchLine,
    PIN_CLK_EN,
    PIN_MATCH,
    PIN_START0,
    PIN_START1,
)
from .fabric import FRAME_BITS, FRAME_BYTES, FRAME_WORDS, flip_frame_bit
from .packets import (
    DESYNC_WRITE,
    READBACK_FAR_INDEX,
    WRITE_DATA_INDEX,
    WRITE_FAR_INDEX,
    build_readback_sequence,
    build_write_frame_sequence,
)

TEMPLATE_ADDR = 0x00200000
READBACK_REQ_ADDR = 0x00280000
READBACK_DST_ADDR = 0x00300000
ERROR_COUNTER_ADDR = 0xFFFF0000
OK_COUNTER_ADDR = 0xFFFF0008

REFERENCE_INJECTIONS = 64640   # 20 frames x 3232 bits
REFERENCE_MINUTES = 440.0

# Bound once for the injection cycle: on Python 3.11 reading an enum
# member costs several times as much as reading a module global.
_PCAP = Interface.PCAP
_HIGH = MatchLine.HIGH
# The lines check_design samples: both starts high, the clock either way.
_HALTED, _RUNNING = ControlLines(0, 1, 1), ControlLines(1, 1, 1)


class InjectionRecord(NamedTuple):
    far: int
    bit: int
    detected: bool
    error: str | None = None


# Built from a tuple of the fields, without NamedTuple's Python-level __new__.
_injection_record = partial(tuple.__new__, InjectionRecord)


@dataclass
class FrameRow:
    far: int
    injections: int
    critical: int
    non_critical: int


@dataclass
class CampaignSummary:
    variant: str
    total_injections: int
    non_critical: int
    critical: int
    estimated_minutes: float
    transfer_errors: int = 0


def estimate_time(injections):
    """Projected campaign minutes at the reference hardware rate."""
    if injections < 0:
        raise ValueError("injection count cannot be negative")
    return injections * (REFERENCE_MINUTES / REFERENCE_INJECTIONS)


def _summary(variant, total, critical, errors):
    return CampaignSummary(variant, total, total - critical, critical,
                           estimate_time(total), errors)


def campaign_init(device):
    """Load the frame template and the read-back request, zero both
    counters, enable the DUT clock; returns both sequences' word counts."""
    if not device.cfg_done:
        raise DevcError("device not initialized: run the bring-up sequence first")
    if device.cfg_error:
        raise DevcError("device has a rejected stream pending: "
                        + ", ".join(device.cfg_error))
    template = build_write_frame_sequence(device.engine.device_id, 0,
                                          [[0] * FRAME_WORDS]).words
    request = build_readback_sequence(0, 1).words
    request.extend(DESYNC_WRITE)  # see the module docstring
    device.dram.write_words(TEMPLATE_ADDR, template)
    device.dram.write_words(READBACK_REQ_ADDR, request)
    device.dram.write_word(ERROR_COUNTER_ADDR, 0)
    device.dram.write_word(OK_COUNTER_ADDR, 0)
    device.gpio[PIN_CLK_EN] = 1
    return len(template), len(request)


class Campaign:
    """Runs injections against one exclusively-owned device."""

    input4 = 0  # the 4-bit operand both modules encrypt on each check

    def __init__(self, device, dut, fail_fast=False, log=None):
        self.device = device
        self.dut = dut
        self.fail_fast = fail_fast
        self.log = log
        self._template_len, self._request_len = campaign_init(device)
        self._staged_far = 0  # the FAR the template is built with
        if dut.baseline_engine is not device.engine:
            dut.capture_baseline(device.engine)

    # -- plumbing -----------------------------------------------------------

    def _transfer(self, src, dst, nwords):
        """Acquire PCAP, run one DMA of `nwords` words, then poll and clear
        `cfg_error`: a rejected stream raises reason "config", naming the
        engine events that rejected it."""
        dev = self.device
        if not dev.interface_acquire(_PCAP):
            raise TransferError("not-owner", "PCAP could not acquire the "
                                "configuration interface")
        dev.dma_enqueue(src, dst, nwords, nwords)
        dev.dma_process()
        rejected = dev.cfg_error
        if rejected:
            dev.cfg_error = []
            raise TransferError("config", "configuration engine rejected the "
                                "stream: " + ", ".join(rejected))

    def read_frame(self, far_word):
        """Read one frame over PCAP; lands at READBACK_DST_ADDR in DRAM."""
        dram = self.device.dram
        dram.write_word(READBACK_REQ_ADDR + 4 * READBACK_FAR_INDEX, far_word)
        self._transfer(READBACK_REQ_ADDR, PL_ADDR, self._request_len)
        # The request's closing DESYNC released PCAP; take it back to drain.
        self._transfer(PL_ADDR, READBACK_DST_ADDR, 2 * FRAME_WORDS)
        # The first frame is the frame buffer's dummy frame.
        return dram.read_bytes(READBACK_DST_ADDR + FRAME_BYTES, FRAME_BYTES)

    def write_template_frame(self):
        """Stream the resident template (current FAR + data words) to the PL."""
        self._transfer(TEMPLATE_ADDR, PL_ADDR, self._template_len)
        # A model invariant, not a PS step (the PS cannot see where a frame
        # landed): the engine's newest committed frame is the staged FAR.
        landed = next(reversed(self.device.engine.frame_versions), None)
        if landed != self._staged_far:
            where = "nothing" if landed is None else f"FAR 0x{landed:08x}"
            raise TransferError("misdirected", f"write staged for FAR "
                                f"0x{self._staged_far:08x} committed {where}")

    def stage_frame(self, far_word, frame=None):
        """Point the template at `far_word`; load `frame` as its data if given."""
        dram = self.device.dram
        dram.write_word(TEMPLATE_ADDR + 4 * WRITE_FAR_INDEX, far_word)
        self._staged_far = far_word
        if frame is not None:
            dram.write_bytes(TEMPLATE_ADDR + 4 * WRITE_DATA_INDEX, frame)

    def check_design(self):
        """Pulse both start lines and sample the match line; True on an error."""
        dev = self.device
        gpio = dev.gpio
        gpio[PIN_START0] = gpio[PIN_START1] = 1
        lines = _RUNNING if gpio.get(PIN_CLK_EN, 0) else _HALTED
        detected = self.dut.run_check(dev.engine, lines,
                                      self.input4).match_line is _HIGH
        gpio[PIN_MATCH] = 1 if detected else 0
        gpio[PIN_START0] = gpio[PIN_START1] = 0
        return detected

    def _restore(self, far_word):
        """Stream the template, whose data words hold the read-back again,
        retrying once; returns the first attempt's failure text, or None if
        it succeeded.

        A frame left faulted would be read back as its own content by every
        later injection, so a restore that fails twice ends the campaign.
        """
        try:
            self.write_template_frame()
            return None
        except DevcError as exc:
            failure = f"restore failed: {exc}"
        try:
            self.write_template_frame()
        except DevcError as exc:
            raise TransferError("restore", f"restore of FAR 0x{far_word:08x} "
                                f"failed twice: {exc}") from exc
        return failure

    # -- one injection ------------------------------------------------------

    def inject_and_check(self, far_word, bit):
        """Flip bit `bit` of frame `far_word`, sample the match line, restore.

        The frame is read back from the PL over PCAP, the read-back staged
        in the template with one bit flipped and written to `far_word`; the
        clocks restart and the match line is sampled.
        Once the frame is read back the restore runs whatever happened: it
        writes the held read-back over the template's data words in one
        step and streams the template again, leaving its FAR slot as it
        is.  So a failed transfer records its error on the injection, which
        is not counted, and never leaves the fabric modified.  A restore
        that fails twice raises `TransferError` with reason "restore".
        """
        dev = self.device
        if not dev.geometry.is_valid_far(far_word):
            raise ValueError(f"FAR 0x{far_word:08x} invalid for geometry "
                             f"{dev.geometry.name}")
        if not 0 <= bit < FRAME_BITS:
            raise ValueError("bit position outside a frame")
        detected = False
        error = None
        dram = dev.dram
        gpio = dev.gpio
        gpio[PIN_CLK_EN] = 0
        frame = None  # the read-back, held for the restore
        try:
            frame = self.read_frame(far_word)
            self.stage_frame(far_word, flip_frame_bit(frame, bit))
            self.write_template_frame()
            gpio[PIN_CLK_EN] = 1
            detected = self.check_design()
        except DevcError as exc:  # TransferError included
            error = str(exc)
        finally:
            try:
                if frame is not None:
                    gpio[PIN_CLK_EN] = 0
                    dram.write_bytes(TEMPLATE_ADDR + 4 * WRITE_DATA_INDEX, frame)
                    failure = self._restore(far_word)
                    if error is None:
                        error = failure
            finally:
                gpio[PIN_CLK_EN] = 1
                events = dev.drain_events()
                if self.log is not None:
                    for event in events:
                        self.log.write(devc.render_event(event) + "\n")
        if error is None:
            counter = ERROR_COUNTER_ADDR if detected else OK_COUNTER_ADDR
            dram.write_word(counter, dram.read_word(counter) + 1)
        return _injection_record((far_word, bit, detected, error))

    # -- campaign loop -------------------------------------------------------

    def run_auto(self, far_words, variant="with_idf"):
        """Full automatic campaign over a FAR list; returns (summary, rows).

        Each frame's 3232 injections run bit 0 to 3231, so word-major.
        """
        rows = []
        errors = 0
        for far_word in far_words:
            detected, error_free = counters(self.device)
            for bit in range(FRAME_BITS):
                error = self.inject_and_check(far_word, bit).error
                if error is not None:
                    if self.fail_fast:
                        raise TransferError("campaign", error)
                    errors += 1
            critical, non_critical = counters(self.device)
            critical -= detected
            non_critical -= error_free
            rows.append(FrameRow(far_word, critical + non_critical, critical,
                                 non_critical))
        summary = _summary(variant, sum(r.injections for r in rows),
                           sum(r.critical for r in rows), errors)
        return summary, rows


def counters(device):
    """(detected_errors, error_free) as stored in DRAM."""
    return (device.dram.read_word(ERROR_COUNTER_ADDR),
            device.dram.read_word(OK_COUNTER_ADDR))


def compare_summaries(with_idf, without_idf):
    """Critical-bit delta and relative reduction (%) of isolation vs none."""
    delta = without_idf.critical - with_idf.critical
    pct = 100.0 * delta / without_idf.critical if without_idf.critical else 0.0
    return delta, pct


def merge_summaries(*summaries):
    """Combine shard summaries from disjoint FAR ranges (order-independent)."""
    if not summaries:
        raise ValueError("nothing to merge")
    variants = {s.variant for s in summaries}
    if len(variants) > 1:
        raise ValueError(f"cannot merge mixed variants {sorted(variants)}")
    return _summary(summaries[0].variant,
                    sum(s.total_injections for s in summaries),
                    sum(s.critical for s in summaries),
                    sum(s.transfer_errors for s in summaries))


# -- report rendering ----------------------------------------------------------


def _csv_text(header, rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


def frame_rows_csv(rows):
    return _csv_text(["far", "injections", "critical", "non_critical"],
                     ([f"0x{row.far:08x}", row.injections, row.critical,
                       row.non_critical] for row in rows))


def summary_text(summary):
    label = "With IDF" if summary.variant == "with_idf" else "Without IDF"
    lines = [
        f"Injection Type: Frame Errors ({label})",
        f"Total Injections: {summary.total_injections}",
        f"Non-critical bits (no error): {summary.non_critical}",
        f"Critical bits (error detected): {summary.critical}",
        f"Estimated testing time (min): {summary.estimated_minutes:g}",
    ]
    if summary.transfer_errors:
        lines.append(f"Transfer errors (skipped): {summary.transfer_errors}")
    return "\n".join(lines) + "\n"


def summary_csv(summary):
    return _csv_text(["variant", "total_injections", "non_critical",
                      "critical", "estimated_minutes", "transfer_errors"],
                     [[summary.variant, summary.total_injections,
                       summary.non_critical, summary.critical,
                       f"{summary.estimated_minutes:g}",
                       summary.transfer_errors]])


# -- utilization and overhead ---------------------------------------------------


@dataclass
class UtilizationRow:
    site_type: str
    used: int | None
    fixed: int | None
    available: int | None


def _cell(value):
    value = value.strip()
    if value in ("", "-"):
        return None
    return int(value)


class UtilizationError(ValueError):
    def __init__(self, lineno, message):
        self.lineno, self.message = lineno, message
        super().__init__(f"line {lineno}: {message}")


def parse_utilization(text):
    """CSV rows `site_type,used,fixed,available`; '-' cells mean absent.

    Returns {site_type: UtilizationRow} in file order; a site may appear
    only once.  A UtilizationError names the line its bad record starts on.
    """
    rows = {}
    first_line = {}
    reader = csv.reader(io.StringIO(text))
    end = 0  # the line the last record ended on: a quoted cell spans lines
    for parts in reader:
        lineno, end = end + 1, reader.line_num
        if not parts or (len(parts) == 1 and not parts[0].strip()):
            continue
        if parts[0].lstrip().startswith("#"):
            continue
        if len(parts) != 4:
            raise UtilizationError(lineno, f"expected 4 fields, got {len(parts)}")
        site = parts[0].strip()
        if site in rows:
            raise UtilizationError(lineno, f"site {site!r} repeats line "
                                           f"{first_line[site]}")
        try:
            rows[site] = UtilizationRow(site, _cell(parts[1]), _cell(parts[2]),
                                        _cell(parts[3]))
        except ValueError:
            raise UtilizationError(lineno, f"bad numeric cell in {parts!r}") from None
        first_line[site] = lineno
    return rows


@dataclass
class OverheadRow:
    site_type: str
    overhead: int
    percent: float


def overhead_diff(without_idf, with_idf):
    """Per-site resources reserved by isolation: available delta and percent.

    Returns (rows, warnings).  Sites missing from either report are skipped
    with a warning; a negative overhead is kept, with a warning.
    """
    rows = []
    warnings = []
    for site in {**without_idf, **with_idf}:
        a = without_idf.get(site)
        b = with_idf.get(site)
        if a is None or b is None:
            warnings.append(f"site {site!r} missing from one report; skipped")
            continue
        if a.available is None and b.available is None:
            rows.append(OverheadRow(site, 0, 0.0))
            continue
        if a.available is None or b.available is None:
            warnings.append(f"site {site!r} has no comparable availability; skipped")
            continue
        overhead = a.available - b.available
        percent = 100.0 * overhead / a.available if a.available else 0.0
        if overhead < 0:
            warnings.append(f"site {site!r}: negative overhead: "
                            "inconsistent input data")
        rows.append(OverheadRow(site, overhead, percent))
    return rows, warnings


def overhead_csv(rows):
    return _csv_text(["site_type", "overhead", "percent"],
                     ([row.site_type, row.overhead, f"{row.percent:.1f}"]
                      for row in rows))
