"""Simulated DevC register bank, PCAP bridge, DMA engine and arbitration.

A Device bundles everything one campaign owns exclusively: the DevC
registers, the DMA descriptor queue, a sparse DRAM, GPIO pins, the
configuration-interface arbiter and the fabric-side configuration engine.

Transfer rules modeled after the real PCAP path:

* PS->PL transfers stream words from DRAM into the configuration engine.
* PL->PS transfers drain a previously requested read-back; a request cannot
  be split across transfers, so the receiving length must match exactly.
* A single PL->PS transfer may not exceed 1010 words (10 frames, 4040
  bytes): longer transfers would cross a 4 KB DMA boundary.
* Reading more than fits the 1024-byte receiver FIFO requires the PCAP
  clock slowed to 25 MHz (divisor >= 4); at full rate it overflows.

All failed transfers are all-or-nothing: no PL or DRAM state changes.
A stream the engine rejects in part only sets `Device.cfg_error` to the
list of engine events that rejected it.

Device events are records, flat `(format, *args)` tuples, appended to
`Device.events` where they happen: nothing is formatted while a transfer
runs.  `render_event` turns a record into its log line, and only a sink
that wants text calls it.  The PCAP byte rate is worked out once per clock
divisor; each transfer adds `(words * 4) / rate` to `sim_seconds`.
"""

import struct
from collections import deque
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

from .fabric import ConfigEngine, desk_geometry
from .packets import ZEDBOARD_IDCODE, bytes_to_words, words_to_bytes

UNLOCK_KEY = 0x757BDF0D
PL_ADDR = 0xFFFFFFFF

RX_FIFO_BYTES = 1024
RX_FIFO_WORDS = RX_FIFO_BYTES // 4
SAFE_DIVISOR = 4
MAX_READ_WORDS = 1010  # 10 frames; 4040 bytes keeps a transfer under 4 KB

PCAP_CLK_HZ = 100_000_000
PCAP_MAX_BYTES_PER_SEC = 145_000_000

_PAGE = 4096
_ZERO_PAGE = memoryview(bytes(_PAGE))  # what an unwritten page reads
_WORD = struct.Struct(">I")


class DevcError(Exception):
    """Base class for device-side failures."""


class LockedError(DevcError):
    pass


class SequencingError(DevcError):
    pass


class DescriptorError(DevcError):
    pass


class TransferError(DevcError):
    def __init__(self, reason, message):
        self.reason = reason
        super().__init__(message)


class Interface(IntEnum):
    """Configuration interfaces in priority order (highest first)."""

    JTAG = 3
    PCAP = 2
    ICAP = 1
    RBCRC = 0


# Bound once for the DMA path: on Python 3.11 reading an enum member
# costs several times as much as reading a module global.
_PCAP = Interface.PCAP
_RBCRC = Interface.RBCRC

# A descriptor's direction as the DMA events spell it.
_UPPER = {"ps2pl": "PS2PL", "pl2ps": "PL2PS"}


@dataclass
class CtrlReg:
    pcap_pr: bool = False
    pcap_mode: bool = False


class DmaDescriptor(NamedTuple):
    src: int
    dst: int
    src_len: int
    dst_len: int
    direction: str  # "ps2pl" or "pl2ps"


class _DescriptorQueue(deque):
    """Plain field tuples, cheaper to queue; indexing gives a DmaDescriptor."""
    def __getitem__(self, index):
        return DmaDescriptor._make(deque.__getitem__(self, index))


class Dram:
    """Sparse byte-addressed memory over a 32-bit space; unwritten reads 0.

    Storage is 4 KB pages of big-endian bytes, matching the on-disk
    sequence format, created on first write; a read never creates one.
    A byte or single-word access inside one page works on that page
    directly; a span that crosses pages goes page by page, and a read of
    one joins views of the pages into the one buffer it returns.
    """

    def __init__(self):
        self._pages = {}

    def _new_page(self, base):
        page = self._pages[base] = bytearray(_PAGE)
        return page

    def write_bytes(self, addr, data):
        data = bytes(data)
        off = addr & (_PAGE - 1)
        if len(data) <= _PAGE - off:
            if data:
                base = addr - off
                page = self._pages.get(base) or self._new_page(base)
                page[off:off + len(data)] = data
            return
        data = memoryview(data)
        while data:
            off = addr & (_PAGE - 1)
            base = addr - off
            page = self._pages.get(base) or self._new_page(base)
            n = min(_PAGE - off, len(data))
            page[off:off + n] = data[:n]
            data = data[n:]
            addr += n

    def read_bytes(self, addr, length):
        off = addr & (_PAGE - 1)
        if 0 <= length <= _PAGE - off:
            page = self._pages.get(addr - off)
            return bytes(length) if page is None else bytes(page[off:off + length])
        if length < 0:
            raise ValueError(f"negative read length {length}")
        spans = []
        while length:
            off = addr & (_PAGE - 1)
            page = self._pages.get(addr - off)
            n = min(_PAGE - off, length)
            if page is None:
                spans.append(_ZERO_PAGE[:n])
            else:
                spans.append(memoryview(page)[off:off + n])
            length -= n
            addr += n
        return b"".join(spans)

    def write_word(self, addr, word):
        word &= 0xFFFFFFFF
        off = addr & (_PAGE - 1)
        if off > _PAGE - 4:
            self.write_bytes(addr, _WORD.pack(word))
            return
        base = addr - off
        _WORD.pack_into(self._pages.get(base) or self._new_page(base), off, word)

    def read_word(self, addr):
        off = addr & (_PAGE - 1)
        if off > _PAGE - 4:
            return _WORD.unpack(self.read_bytes(addr, 4))[0]
        page = self._pages.get(addr - off)
        return 0 if page is None else _WORD.unpack_from(page, off)[0]

    def write_words(self, addr, words):
        # Packed before any page is touched: a word that does not fit
        # raises struct.error and changes nothing.
        self.write_bytes(addr, words_to_bytes(words))

    def read_words(self, addr, count):
        return bytes_to_words(self.read_bytes(addr, 4 * count))


def render_event(record):
    """The log line of one `Device` event record, `(format, *args)`."""
    return record[0].format(*record[1:])


class Device:
    """One exclusively-owned DevC + PCAP + engine + DRAM unit."""

    def __init__(self, geometry=None):
        self.geometry = geometry if geometry is not None else desk_geometry()
        self.engine = ConfigEngine(self.geometry, ZEDBOARD_IDCODE)
        self.dram = Dram()
        self.ctrl = CtrlReg()
        self.locked = True
        self.cfg_done = False
        self.cfg_error = []  # a rejected stream's events; the poller clears it
        self.set_pcap_clock_divisor(1)
        self.owner = None
        self.dma_queue = _DescriptorQueue()
        self.gpio = {}  # PS GPIO pin -> level, 0 or 1; unwritten pins read 0
        self.events = []
        self.pending_readback = None
        self.words_moved = 0
        self.sim_seconds = 0.0

    # -- bookkeeping ---------------------------------------------------------

    def drain_events(self):
        out = self.events
        self.events = []
        return out

    # -- lock and registers ----------------------------------------------

    def unlock(self, key):
        if key != UNLOCK_KEY:
            self.events.append(("UNLOCK REJECTED KEY=0x{:08x}", key))
            raise LockedError("wrong unlock key; device remains locked")
        self.locked = False
        self.events.append(("UNLOCK OK",))

    def write_reg(self, name, value):
        """Register write honoring the lock: while locked, writes are dropped."""
        if self.locked:
            self.events.append(("REGWRITE DROPPED LOCKED {}", name))
            return
        if name == "ctrl_pcap_pr":
            self.ctrl.pcap_pr = bool(value)
        elif name == "ctrl_pcap_mode":
            self.ctrl.pcap_mode = bool(value)
        else:
            raise ValueError(f"unknown register {name!r}")

    # -- initialization ----------------------------------------------------

    def pl_initialize(self):
        """Bring the PL up over PCAP: power, init, PCAP select, cfg done.

        Requires the device unlocked and ctrl.pcap_pr/ctrl.pcap_mode already
        set, otherwise PCAP cannot be selected.  A call that raises changes
        nothing, so it can be retried once the cause is fixed.
        """
        if self.locked:
            raise LockedError("unlock the DevC interface first")
        if self.cfg_done:
            raise SequencingError("pl_initialize called after CFG_DONE")
        if not (self.ctrl.pcap_pr and self.ctrl.pcap_mode):
            raise SequencingError("ctrl.pcap_pr and ctrl.pcap_mode must be set "
                                  "before PCAP can be selected")
        self.cfg_done = True
        self.events.append(("PL INIT CFG_DONE",))

    def set_pcap_clock_divisor(self, div):
        if div < 1:
            raise ValueError("clock divisor must be >= 1")
        self.clock_divisor = int(div)
        # PCAP moves one word per clock, up to the bridge's maximum.
        self._byte_rate = min(4 * self.pcap_clock_hz, PCAP_MAX_BYTES_PER_SEC)

    @property
    def pcap_clock_hz(self):
        return PCAP_CLK_HZ // self.clock_divisor

    # -- DMA ---------------------------------------------------------------

    def dma_enqueue(self, src, dst, src_len, dst_len):
        """Queue one transfer, as writing the four descriptor registers does.

        While the device is locked the four writes are dropped, each logged
        as `REGWRITE DROPPED LOCKED`, and nothing is queued.  On a
        `SequencingError` or `DescriptorError` nothing is queued or logged.
        """
        if self.locked:
            for name in ("dma_src", "dma_dst", "dma_src_len", "dma_dst_len"):
                self.events.append(("REGWRITE DROPPED LOCKED {}", name))
            return
        if not self.cfg_done:
            raise SequencingError("not initialized: PL configuration not done")
        src &= 0xFFFFFFFF
        dst &= 0xFFFFFFFF
        to_pl = dst == PL_ADDR
        if to_pl == (src == PL_ADDR):
            raise DescriptorError("exactly one of src/dst must be the PL "
                                  f"address 0x{PL_ADDR:08X}")
        if src_len < 0 or dst_len < 0:
            raise DescriptorError(f"negative transfer length {src_len}/{dst_len}")
        direction = "ps2pl" if to_pl else "pl2ps"
        self.dma_queue.append((src, dst, src_len, dst_len, direction))
        self.events.append(("DMA QUEUED {} SRC=0x{:08x} DST=0x{:08x} LEN={}",
                            _UPPER[direction], src, dst, dst_len))

    def dma_process(self):
        """Execute the oldest queued transfer; raises on any rule violation.

        Errors consume the descriptor, log `DMA ERROR` and leave all PL
        and DRAM state untouched.  A PS->PL transfer streams its words
        through the engine, releases the interface when the engine reports
        `desync` and makes its other events but `sync` the new `cfg_error`,
        since frames may already be committed; a PL->PS transfer drains the
        pending read-back whole into DRAM.
        """
        try:
            src, dst, src_len, nwords, direction = self.dma_queue.popleft()
        except IndexError:
            raise DescriptorError("no DMA descriptor queued") from None
        events = self.events
        try:
            if not self.cfg_done:
                raise TransferError("not-initialized", "PL configuration not done")
            if self.owner is not _PCAP:
                raise TransferError("not-owner", "PCAP does not own the "
                                    "configuration interface")
            if src_len != nwords:
                raise TransferError("width", f"source length {src_len} != "
                                    f"destination length {nwords}")
            if direction == "ps2pl":
                readback, engine_events = self.engine.execute(
                    self.dram.read_bytes(src, 4 * nwords))
                rejected = []
                for ev in engine_events:
                    events.append(("ENGINE {}", ev))
                    if ev == "desync":
                        if self.owner is not None:
                            events.append(("DESYNC RELEASE {0.name}", self.owner))
                            self.owner = None
                    elif ev != "sync":
                        rejected.append(ev)
                if rejected:
                    self.cfg_error = rejected
                if readback:
                    if self.pending_readback is not None:
                        events.append(("READBACK DROPPED UNREAD",))
                    self.pending_readback = readback
            else:
                if nwords > MAX_READ_WORDS:
                    raise TransferError("boundary", f"{nwords} words cross a 4 KB "
                                        f"DMA boundary (max {MAX_READ_WORDS})")
                if nwords > RX_FIFO_WORDS and self.clock_divisor < SAFE_DIVISOR:
                    raise TransferError("overflow", f"{nwords * 4} bytes overflow "
                                        f"the {RX_FIFO_BYTES}-byte receiver FIFO "
                                        f"at divisor {self.clock_divisor}")
                readback = self.pending_readback
                if readback is None:
                    raise TransferError("width", "no read-back data pending")
                if len(readback) != 4 * nwords:
                    raise TransferError("width", "a read-back cannot be split: "
                                        f"{len(readback) // 4} words pending, "
                                        f"{nwords} requested")
                self.dram.write_bytes(dst, readback)
                self.pending_readback = None
        except TransferError as exc:
            events.append(("DMA ERROR {} LEN={}", exc.reason.upper(), nwords))
            raise
        self.words_moved += nwords
        self.sim_seconds += (nwords * 4) / self._byte_rate
        events.append(("DMA {} DONE WORDS={}", _UPPER[direction], nwords))

    # -- arbitration ---------------------------------------------------------

    def interface_acquire(self, kind):
        """Request the configuration interface; returns True when granted."""
        if kind.__class__ is not Interface:  # a member skips the lookup
            kind = Interface(kind)
        owner = self.owner
        if owner is None:
            self.owner = kind
            self.events.append(("ACQUIRE {0.name} GRANTED", kind))
            return True
        if owner is kind:
            return True
        if kind is _RBCRC:
            self.events.append(("ACQUIRE RBCRC IGNORED OWNER={0.name}", owner))
            return False
        if kind > owner:
            self.events.append(("ACQUIRE {0.name} PREEMPTS {1.name}", kind, owner))
            self.owner = kind
            return True
        self.events.append(("ACQUIRE {0.name} IGNORED OWNER={1.name}", kind, owner))
        return False

    def interface_release_on_desync(self):
        """Release the configuration interface, as a DESYNC command does.

        `dma_process` releases the same way on the engine's `desync`;
        callers use this for interfaces without a modeled data path.
        """
        if self.owner is not None:
            self.events.append(("DESYNC RELEASE {0.name}", self.owner))
            self.owner = None


def boot_device(geometry=None):
    """Unlock, select PCAP and finish PL bring-up; ready for transfers."""
    dev = Device(geometry)
    dev.unlock(UNLOCK_KEY)
    dev.write_reg("ctrl_pcap_pr", 1)
    dev.write_reg("ctrl_pcap_mode", 1)
    dev.pl_initialize()
    return dev
