"""Behavioral model of the design under test.

Two redundant AES-256 modules encrypt the same block under a fixed key and
a comparator drives a match line: low when the outputs are byte-equal, high
on mismatch.  A sensitivity map assigns configuration bits a criticality
class; a flipped module-critical bit corrupts that module's output with a
deterministic nonzero mask, and a flipped comparator-critical bit forces
the match line high regardless of the outputs.

A check decides the match line from the classes of the flipped bits
alone: a comparator flip, or exactly one faulted module, drives it high,
since a fault mask is never zero, and only with both modules faulted are
their masks compared.  The two outputs are derived when
`MatchResult.outputs` is read, as device events are rendered only at a
log sink.

Control lines mirror the PS GPIO wiring: a clock enable, one start per
module, and the match line routed back.
"""

import hashlib
import random
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import NamedTuple

from .aes import aes256_encrypt
from .fabric import BIT_OF_POS, FRAME_BITS, ZERO_FRAME

DEFAULT_KEY = bytes(range(32))

PIN_CLK_EN = 10
PIN_START0 = 11
PIN_START1 = 12
PIN_MATCH = 13


class Criticality(Enum):
    """A mapped bit's class, as a map line names it."""

    MODULE0 = "module0"
    MODULE1 = "module1"
    COMPARATOR = "comparator"


_CLASS_TOKENS = {crit.value: crit for crit in Criticality}

# Bit indices in the spelling `SensitivityMap.save` writes.
_BIT_TOKENS = {str(bit): bit for bit in range(FRAME_BITS)}


class MatchLine(Enum):
    LOW = "low"    # outputs equal
    HIGH = "high"  # error detected


# Bound once for the per-injection check and map loading: on Python 3.11
# reading an enum member costs several times a module global.
_MODULE0 = Criticality.MODULE0
_MODULE1 = Criticality.MODULE1
_LOW = MatchLine.LOW
_HIGH = MatchLine.HIGH


class DesignHaltedError(RuntimeError):
    """Clock enable is low: the design cannot produce a result."""


class StartsNotAssertedError(RuntimeError):
    """Both start lines must be pulsed before sampling the match line."""


@dataclass
class DutConfig:
    variant: str = "with_idf"  # or "without_idf"


class ControlLines(NamedTuple):
    clk_en: int = 0
    start_0: int = 0
    start_1: int = 0


class MatchResult(NamedTuple):
    """One check: the match line, and both modules' 16-byte outputs.

    The match line is decided when the check runs.  `outputs` is derived
    on each read from the 4-bit input's cipher block and each module's
    first flip (FAR word, bit), or None for an unfaulted module.
    """

    match_line: MatchLine
    input4: int
    flip0: tuple | None
    flip1: tuple | None

    @property
    def outputs(self):
        block = aes256_encrypt(DEFAULT_KEY, widen_input(self.input4))
        base = int.from_bytes(block, "big")
        return tuple(
            (base if flip is None else base ^ fault_mask(*flip)).to_bytes(16, "big")
            for flip in (self.flip0, self.flip1))


# Built from a tuple of the fields, without NamedTuple's Python-level __new__.
_match_result = partial(tuple.__new__, MatchResult)


class SensitivityMap:
    """(FAR word, bit index) -> criticality; unlisted bits are not critical."""

    def __init__(self):
        self._by_far = {}

    def add(self, far_word, bit, criticality):
        """Set one bit's class, replacing any earlier one.  The FAR and the
        bit are ints and the class a `Criticality` member; anything else
        raises ValueError and leaves the map as it was."""
        if not (isinstance(far_word, int) and isinstance(bit, int)
                and isinstance(criticality, Criticality)):
            raise ValueError(f"map entry {far_word!r} {bit!r} {criticality!r} "
                             "needs an int FAR and bit and a Criticality")
        if not 0 <= far_word <= 0xFFFFFFFF:
            raise ValueError(f"FAR {far_word:#x} outside 0..0xffffffff")
        if not 0 <= bit < FRAME_BITS:
            raise ValueError(f"bit index {bit} outside 0..{FRAME_BITS - 1}")
        self._by_far.setdefault(far_word, {})[bit] = criticality

    @property
    def critical_count(self):
        return sum(map(len, self._by_far.values()))

    @property
    def frames(self):
        return sorted(self._by_far)

    def iter_entries(self):
        for far_word in sorted(self._by_far):
            bits = self._by_far[far_word]
            for bit in sorted(bits):
                yield far_word, bit, bits[bit]

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write("# sensitivity map: FAR_hex bit_index class\n")
            for far_word, bit, crit in self.iter_entries():
                f.write(f"0x{far_word:08x} {bit} {crit.value}\n")

    @classmethod
    def load(cls, path):
        """Read a map file: one `FAR_hex bit_index class` line per critical
        bit, with `#` comments and blank lines allowed.  A later line for
        the same (FAR, bit) replaces the earlier one; a bad line raises
        ValueError naming `path:lineno`.

        One pass with no call per line: each distinct FAR token is
        converted once and leads straight to its frame's bit dict, which
        every spelling of that FAR shares, and each bit token is looked up
        in a table of the canonical spellings, or converted once.
        """
        smap = cls()
        by_far = smap._by_far
        frame_of = {}                   # FAR token -> its frame's bit dict
        bit_of = dict(_BIT_TOKENS)      # bit token -> bit index
        classes = _CLASS_TOKENS
        with open(path, "r", encoding="utf-8") as f:
            for lineno, raw in enumerate(f, 1):
                parts = raw.split()
                if len(parts) != 3:
                    if not parts or parts[0].startswith("#"):
                        continue
                    raise ValueError(f"{path}:{lineno}: expected 'FAR bit class'")
                far_tok, bit_tok, class_tok = parts
                bits = frame_of.get(far_tok)
                bit = bit_of.get(bit_tok)
                crit = classes.get(class_tok)
                if bits is None or bit is None or crit is None:
                    # A comment, a token not seen before, or a bad line.
                    if far_tok.startswith("#"):
                        continue
                    try:
                        far_word = int(far_tok, 16)
                        bit = int(bit_tok)
                        crit = classes[class_tok]
                    except (ValueError, KeyError):
                        raise ValueError(f"{path}:{lineno}: cannot parse "
                                         f"{raw.strip()!r}") from None
                    if not 0 <= far_word <= 0xFFFFFFFF:
                        raise ValueError(f"{path}:{lineno}: FAR {far_word:#x} "
                                         "outside 0..0xffffffff")
                    if not 0 <= bit < FRAME_BITS:
                        raise ValueError(f"{path}:{lineno}: bit index {bit} "
                                         f"outside 0..{FRAME_BITS - 1}")
                    bits = frame_of[far_tok] = by_far.setdefault(far_word, {})
                    bit_of[bit_tok] = bit
                bits[bit] = crit
        return smap


def sensitivity_generate(seed, frames, critical_count, split=(0.45, 0.45, 0.10)):
    """Deterministic fixture map: exactly `critical_count` critical bits.

    Bits are drawn without replacement from the given frames' 3232-bit
    positions and assigned MODULE0/MODULE1/COMPARATOR according to `split`
    (fractions >= 0 with a positive sum, normalized).
    """
    if any(not f >= 0 for f in split) or not sum(split) > 0:
        raise ValueError(f"split {tuple(split)} needs fractions >= 0 with a "
                         "positive sum")
    if critical_count < 0:
        raise ValueError("critical_count cannot be negative")
    frames = list(frames)
    space = len(frames) * FRAME_BITS
    if critical_count > space:
        raise ValueError(f"critical_count {critical_count} exceeds "
                         f"{space} available bits")
    total = sum(split)
    n0 = int(round(critical_count * split[0] / total))
    n1 = int(round(critical_count * split[1] / total))
    n0 = min(n0, critical_count)
    n1 = min(n1, critical_count - n0)
    classes = ([Criticality.MODULE0] * n0 + [Criticality.MODULE1] * n1
               + [Criticality.COMPARATOR] * (critical_count - n0 - n1))
    rng = random.Random(seed)
    positions = rng.sample(range(space), critical_count)
    rng.shuffle(classes)
    smap = SensitivityMap()
    for pos, crit in zip(positions, classes):
        far_word = frames[pos // FRAME_BITS]
        smap.add(far_word, pos % FRAME_BITS, crit)
    return smap


def fault_mask(far_word, bit):
    """Deterministic nonzero 128-bit corruption mask for one flipped bit:
    the BLAKE2b digest of (far << 12) | bit, OR 1 so it is never zero."""
    digest = hashlib.blake2b(((far_word << 12) | bit).to_bytes(8, "big"),
                             digest_size=16).digest()
    return int.from_bytes(digest, "big") | 1


def widen_input(input4):
    """Replicate a 4-bit operand into the 128-bit plaintext block."""
    if not 0 <= input4 <= 0xF:
        raise ValueError("input must be a 4-bit value")
    byte = (input4 << 4) | input4
    return bytes([byte]) * 16


class DutModel:
    """Incremental checker bound to one sensitivity map and golden baseline.

    The golden reference defaults to the all-zero configuration (an
    untouched fabric); `capture_baseline` rebases it on the engine's
    current memory, sharing its immutable frames.  Each check rescans only
    the mapped frames changed since the previous one, newest first in
    `engine.frame_versions`, and costs one map lookup per bit by which
    such a frame differs from its baseline: after an injection's fault
    write that is one bit, after its restore none.  The difference is found
    by XOR of the frames as integers; a baseline frame is converted once,
    the first time a check finds that frame changed.  `config`, a
    `DutConfig`, is accepted but not kept: no check depends on the variant.
    """

    def __init__(self, config=None, sensitivity_map=None):
        self.smap = sensitivity_map if sensitivity_map is not None else SensitivityMap()
        self.baseline = {}
        self.baseline_engine = None  # the engine `baseline` was taken from
        self._baseline_ints = {}  # FAR word -> its baseline frame as an int
        self._track(None, 0)

    def capture_baseline(self, engine):
        self.baseline = dict(engine.memory)
        self.baseline_engine = engine
        self._baseline_ints = {}
        # memory equals the baseline now: nothing is flipped
        self._track(engine, next(reversed(engine.frame_versions.values()), 0))

    def _track(self, engine, seen):
        self._engine = engine
        self._seen = seen       # newest frame version scanned in _engine
        self._flipped = {}      # FAR word -> its flips, for frames with any

    def _rescan(self, engine):
        """Bring `_flipped` up to date with the frames changed since the
        last scan; returns it."""
        versions = engine.frame_versions
        changed = []
        if engine is not self._engine:
            self._track(engine, 0)
            # a frame only the baseline holds differs from it unversioned
            changed.extend(self.baseline.keys() - versions.keys())
        seen = self._seen
        for far_word, version in reversed(versions.items()):
            if version <= seen:
                break
            if version > self._seen:  # the newest, met first
                self._seen = version
            changed.append(far_word)
        flipped = self._flipped
        baseline = self.baseline
        for far_word in changed:
            bits = self.smap._by_far.get(far_word)
            if bits:
                cur = engine.memory.get(far_word, ZERO_FRAME)
                if cur != baseline.get(far_word, ZERO_FRAME):
                    # Converted once, when a rescan first meets it changed.
                    ref = self._baseline_ints.get(far_word)
                    if ref is None:
                        ref = int.from_bytes(baseline.get(far_word, ZERO_FRAME),
                                             "big")
                        self._baseline_ints[far_word] = ref
                    diff = int.from_bytes(cur, "big") ^ ref
                    flips = []
                    while diff:
                        pos = diff.bit_length() - 1
                        diff ^= 1 << pos
                        bit = BIT_OF_POS[pos]
                        crit = bits.get(bit)
                        if crit is not None:
                            flips.append((bit, crit))
                    if flips:
                        flips.sort()
                        flipped[far_word] = flips
                        continue
            flipped.pop(far_word, None)
        return flipped

    def run_check(self, engine, lines, input4):
        if not lines.clk_en:
            raise DesignHaltedError("design halted: clock enable is low")
        if not (lines.start_0 and lines.start_1):
            raise StartsNotAssertedError("both start lines must be asserted")
        # One pass in (far, bit) order finds the first flip of each module
        # and any comparator flip; classes are told apart by identity.
        m0 = m1 = None
        comparator = False
        flipped = self._rescan(engine)  # empty unless a critical bit flipped
        for far_word, flips in sorted(flipped.items()) if flipped else ():
            for bit, crit in flips:
                if crit is _MODULE0:
                    if m0 is None:
                        m0 = (far_word, bit)
                elif crit is _MODULE1:
                    if m1 is None:
                        m1 = (far_word, bit)
                else:
                    comparator = True
        # fault_mask is never zero, so one faulted module alone mismatches;
        # with both faulted the outputs differ exactly when the masks do.
        if comparator or (m0 is None) != (m1 is None):
            match = _HIGH
        elif m0 is None or fault_mask(*m0) == fault_mask(*m1):
            match = _LOW
        else:
            match = _HIGH
        return _match_result((match, input4, m0, m1))
