"""In-memory span tracer installed around idfsim's public functions.

The traced run patches classes and module attributes of the already
imported idfsim package from here; nothing under `src/` carries tracing
code.  A span is (name, start, end, parent) in perf_counter nanoseconds,
kept in flat arrays while the run lasts and written to a file when it ends.
A span's self time is its duration minus the durations of its direct
children.

Calls inside one group (for example a `Dram` method calling another) open
no new span: the outer span covers them, so each boundary between layers
yields one span.
"""

import json
import statistics
import time
from array import array

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        # Closed spans, five integers each: index (in opening order), name
        # id, parent index (-1 for none), start ns, end ns.
        self.records = array("q")
        self._next = 0
        self._open = -1            # index of the innermost open span
        self._open_group = -1      # its group id
        self.enabled = False
        self.counts = {}
        self.writes_in_inject = 0
        # The timed region, as span indices and counter snapshots.
        self.window = (0, 0)
        self._counts_at_start = {}
        self.window_counts = {}
        self._self_times = {}

    def name_id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def count(self, key, n=1):
        if self.enabled:
            self.counts[key] = self.counts.get(key, 0) + n

    def call(self, name_id, group_id, fn, args, kwargs):
        """Run fn(*args, **kwargs) inside a span unless nested in its group."""
        if not self.enabled or self._open_group == group_id:
            return fn(*args, **kwargs)
        parent, parent_group = self._open, self._open_group
        i = self._next
        self._next = i + 1
        self._open, self._open_group = i, group_id
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _clock()
            self._open, self._open_group = parent, parent_group
            self.records.extend((i, name_id, parent, t0, t1))

    def wrap(self, name, fn, group=None):
        nid = self.name_id(name)
        gid = self.name_id(group or name)

        def traced(*args, **kwargs):
            return self.call(nid, gid, fn, args, kwargs)

        return traced

    # -- results -------------------------------------------------------------

    def start_window(self):
        """Spans and counts from here on belong to the timed region."""
        self.window = (self._next, self._next)
        self._counts_at_start = dict(self.counts)

    def end_window(self):
        """Close the timed region, stop recording and compute self times."""
        self.window = (self.window[0], self._next)
        self.window_counts = {k: v - self._counts_at_start.get(k, 0)
                              for k, v in self.counts.items()}
        self.enabled = False
        self._self_times = self.self_times()

    def self_times(self):
        """{name: (set-up self times, timed-region self times)} in ns."""
        rec = self.records
        n = len(rec) // 5
        name = array("i", bytes(4 * n))
        own = array("q", bytes(8 * n))
        for r in range(0, len(rec), 5):
            i, nid, parent, t0, t1 = rec[r:r + 5]
            name[i] = nid
            own[i] += t1 - t0
            if parent >= 0:
                own[parent] -= t1 - t0
        lo, hi = self.window
        by_name = [(array("q"), array("q")) for _ in self.names]
        for i in range(n):
            setup, timed = by_name[name[i]]
            (timed if lo <= i < hi else setup).append(own[i])
        return {self.names[k]: v for k, v in enumerate(by_name) if v[0] or v[1]}

    def median_self_us(self, name):
        """Median self time per call in the timed region, or in set-up when
        the name has no calls there; 0.0 when it was never called."""
        setup, timed = self._self_times.get(name, ([], []))
        samples = timed or setup
        return statistics.median(samples) / 1e3 if samples else 0.0

    def window_calls(self, name):
        """Spans of `name` recorded in the timed region."""
        return len(self._self_times.get(name, ([], []))[1])

    def window_self_us(self, prefix):
        """Total timed-region self time of the spans named `prefix`*."""
        return sum(sum(timed) for name, (_setup, timed)
                   in self._self_times.items()
                   if name.startswith(prefix)) / 1e3

    def write(self, path):
        """Spans as one JSON header line followed by the raw records."""
        header = {"names": self.names, "spans": len(self.records) // 5,
                  "window": list(self.window),
                  "record": ["index", "name", "parent", "start_ns", "end_ns"],
                  "format": "int64 native byte order"}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            self.records.tofile(f)


def install(tracer, idfsim_modules):
    """Patch the public entry points of each layer to record spans.

    `idfsim_modules` maps short names (campaign, devc, dut, fabric, packets,
    verifier) to the imported modules.
    """
    campaign = idfsim_modules["campaign"]
    devc = idfsim_modules["devc"]
    dut = idfsim_modules["dut"]
    fabric = idfsim_modules["fabric"]
    packets = idfsim_modules["packets"]
    verifier = idfsim_modules["verifier"]

    def patch_method(cls, attr, name, group=None):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), group))

    # campaign: the phases of one injection.  The first template write of
    # an injection is the fault write, the second the restore.
    patch_method(campaign.Campaign, "run_auto", "campaign.run_auto")
    patch_method(campaign.Campaign, "read_frame", "campaign.read_frame")
    patch_method(campaign.Campaign, "stage_frame", "campaign.stage_frame")
    inject = campaign.Campaign.inject_and_check
    inject_id = tracer.name_id("campaign.inject_and_check")

    def traced_inject(*args, **kwargs):
        tracer.writes_in_inject = 0
        tracer.count("campaign.injections")
        return tracer.call(inject_id, inject_id, inject, args, kwargs)

    campaign.Campaign.inject_and_check = traced_inject
    write = campaign.Campaign.write_template_frame
    write_ids = (tracer.name_id("campaign.write"),
                 tracer.name_id("campaign.restore"))

    def traced_write(*args, **kwargs):
        nid = write_ids[min(tracer.writes_in_inject, 1)]
        tracer.writes_in_inject += 1
        return tracer.call(nid, nid, write, args, kwargs)

    campaign.Campaign.write_template_frame = traced_write

    # dut: the match-line check, including its scan of mapped frames.
    patch_method(dut.DutModel, "run_check", "dut.run_check")

    # devc: DMA transfers by direction, DRAM word I/O, descriptor writes.
    process = devc.Device.dma_process
    ps2pl_id = tracer.name_id("devc.dma_ps2pl")
    pl2ps_id = tracer.name_id("devc.dma_pl2ps")
    dma_group = tracer.name_id("devc.dma")

    def traced_process(self):
        nid = pl2ps_id
        if self.dma_queue and self.dma_queue[0].direction == "ps2pl":
            nid = ps2pl_id
        before = self.words_moved
        try:
            return tracer.call(nid, dma_group, process, (self,), {})
        except devc.TransferError:
            tracer.count("devc.transfer_errors")
            raise
        finally:
            tracer.count("devc.words_moved", self.words_moved - before)

    devc.Device.dma_process = traced_process
    patch_method(devc.Device, "dma_enqueue", "devc.dma_enqueue")
    drain = devc.Device.drain_events

    def traced_drain(self):
        events = drain(self)
        tracer.count("devc.events", len(events))
        return events

    devc.Device.drain_events = traced_drain
    for attr in ("write_bytes", "read_bytes", "write_word", "read_word",
                 "write_words", "read_words"):
        patch_method(devc.Dram, attr, "devc.dram")

    # fabric: stream execution and FAR stepping.
    execute = fabric.ConfigEngine.execute
    execute_id = tracer.name_id("fabric.execute")

    def traced_execute(self, words):
        tracer.count("fabric.execute_words", len(words))
        return tracer.call(execute_id, execute_id, execute, (self, words), {})

    fabric.ConfigEngine.execute = traced_execute
    next_far = fabric.DeviceGeometry.next_far

    def counted_next_far(self, f):
        tracer.count("fabric.next_far_calls")
        return next_far(self, f)

    fabric.DeviceGeometry.next_far = counted_next_far

    checks = verifier.run_all_checks

    def counted_checks(*args, **kwargs):
        header, violations = checks(*args, **kwargs)
        tracer.count("verifier.violations", len(violations))
        return header, violations

    verifier.run_all_checks = counted_checks

    # packets, verifier: module functions, rebound wherever imported.
    for mod, attr, name in (
            (packets, "build_write_frame_sequence", "packets.build"),
            (packets, "build_readback_sequence", "packets.build"),
            (packets, "build_desync_footer", "packets.build"),
            (packets, "words_to_bytes", "packets.words_to_bytes"),
            (verifier, "parse_floorplan", "verifier.parse"),
            (verifier, "check_idf2", "verifier.idf2"),
            (verifier, "check_idf3", "verifier.idf3"),
            (verifier, "check_idf4", "verifier.idf4"),
            (verifier, "check_idf5", "verifier.idf5"),
            (verifier, "check_idf6", "verifier.idf6")):
        original = getattr(mod, attr)
        traced = tracer.wrap(name, original)
        for other in idfsim_modules.values():
            if getattr(other, attr, None) is original:
                setattr(other, attr, traced)
