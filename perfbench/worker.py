"""Runs one workload in a fresh process and writes its raw result as JSON.

Usage: python3 perfbench/worker.py SPEC.json

`run.py` writes the spec (workload, seed, seconds, trace flag, input and
output paths) and judges the result.  This process only drives idfsim's
public API: it sets the program up, warms the lazy caches, runs operations
for the given number of seconds in a closed loop (one caller, no threads)
and reports timings and the program's outputs.  Between operations, the
untraced run sets the program up again and again, outside the operations'
timing, so that set-up is sampled across the whole run.
"""

import gc
import json
import os
import random
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from idfsim import campaign, cli, devc, dut, fabric, packets, verifier  # noqa: E402
import gen  # noqa: E402
import trace  # noqa: E402

MODULES = {"campaign": campaign, "cli": cli, "devc": devc, "dut": dut,
           "fabric": fabric, "packets": packets, "verifier": verifier}

clock = time.perf_counter_ns

LAYERS = ("campaign", "dut", "devc", "fabric", "packets", "verifier")

# On a shared host, other tenants slow this code by up to 2x, in spells
# from tens of milliseconds to minutes.  Both timed figures therefore come
# from the fastest part of the run (see Latencies), and set-ups are spread
# over the whole run, as operations are.
WINDOW_NS = 50_000_000
FIRST_SETUPS = 3              # back to back, before the timed region
SETUP_SHARE = 0.3             # of the timed region spent on set-up samples
RESERVOIR = 20_000            # latencies kept for the percentiles

BULK_ADDR = 0x01000000        # full-device write stream
READ_REQ_ADDR = 0x00280000    # read-back request stream
READ_DST_ADDR = 0x00300000    # read-back data, dummy frame first
READ_FRAMES = 9               # 9 frames + 1 dummy = 1010 words per transfer
READ_DIVISOR = 4              # PCAP clock slow enough for 1010-word reads


class Latencies:
    """Latencies in memory that does not grow with their number.

    `best()` is the median latency within the fastest window: operations
    are grouped in order into windows of at least WINDOW_NS of summed
    latency, so an operation longer than that is a window of its own, and
    a short trailing window counts only when it is the only one.  The
    percentiles come from a uniform sample of RESERVOIR latencies.
    """

    def __init__(self):
        self.n = 0
        self.total_ns = 0
        self._window = array("q")
        self._window_ns = 0
        self._window_medians = []
        self._sample = array("q", bytes(8 * RESERVOIR))
        self._rng = random.Random(0)

    def add(self, ns):
        self.n += 1
        self.total_ns += ns
        if self.n <= RESERVOIR:
            self._sample[self.n - 1] = ns
        else:
            j = self._rng.randrange(self.n)
            if j < RESERVOIR:
                self._sample[j] = ns
        self._window.append(ns)
        self._window_ns += ns
        if self._window_ns >= WINDOW_NS:
            self._window_medians.append(statistics.median(self._window))
            self._window = array("q")
            self._window_ns = 0

    def best(self):
        return min(self._window_medians
                   or [statistics.median(self._window)])

    def percentile(self, pct):
        """Linear-interpolated percentile (inclusive method)."""
        sample = self._sample[:min(self.n, RESERVOIR)]
        if len(sample) == 1:
            return sample[0]
        return statistics.quantiles(sample, n=100, method="inclusive")[pct - 1]


class SetupSampler:
    """Times repeated program set-ups into `times`, a Latencies.

    `first()` sets up FIRST_SETUPS times and keeps the last state for the
    run.  When interleaving, `between()`, called between operations, sets
    up again (and drops the result) until set-up samples have taken
    SETUP_SHARE of the time since `start()`, so the samples spread over
    the whole run.
    """

    def __init__(self, workload, interleave):
        self.workload = workload
        self.interleave = interleave
        self.times = Latencies()
        self._spent = 0
        self._start = None

    def _sample(self):
        gc.collect()
        t0 = clock()
        state = self.workload.setup()
        self.times.add(clock() - t0)
        return state

    def first(self):
        for _ in range(FIRST_SETUPS - 1):
            self._sample()
        return self._sample()

    def start(self):
        self._start = clock()

    def between(self):
        if not self.interleave:
            return
        now = clock()
        while self._spent < SETUP_SHARE * (now - self._start):
            self._sample()
            gc.collect()
            after = clock()
            self._spent += after - now
            now = after


def _acquire(device):
    if not device.interface_acquire(devc.Interface.PCAP):
        raise devc.TransferError("not-owner", "PCAP could not acquire the "
                                 "configuration interface")


def _keep_going(start, done, seconds):
    """True while one more step of average length would end the run nearer
    to `seconds` than stopping now does."""
    elapsed = clock() - start
    return elapsed + elapsed / done / 2 <= seconds * 1e9


# -- campaign_ref20 / campaign_devmap -------------------------------------------


class CampaignWorkload:
    """`idfsim campaign` over a frame list, one `run_auto` call per frame.

    An operation is one injection (`inject_and_check`).
    """

    def __init__(self, spec):
        self.map_path = spec["inputs"]["map"]
        self.fars = spec["frames"]

    def setup(self):
        # As `idfsim campaign --variant idf --geometry z7020like --map ...`.
        geometry = fabric.load_geometry("z7020like")
        smap = dut.SensitivityMap.load(self.map_path)
        device = devc.boot_device(geometry)
        model = dut.DutModel(dut.DutConfig(variant="with_idf"), smap)
        runner = campaign.Campaign(device, model, fail_fast=False, log=None)
        # Warm the AES ciphertext cache (and the DUT's per-frame cache) and
        # the read-back request cache, so their cost lands in set-up.
        lines = dut.ControlLines(clk_en=1, start_0=1, start_1=1)
        model.run_check(device.engine, lines, runner.input4)
        for far in self.fars:
            runner.read_frame(far)
        device.drain_events()
        return runner

    def prepare(self, runner):
        self.baseline_digest = fabric.snapshot_digest(runner.device.engine)

    def run(self, runner, seconds, between):
        latencies = Latencies()
        inject = runner.inject_and_check

        def timed_inject(*args, **kwargs):
            t0 = clock()
            record = inject(*args, **kwargs)
            latencies.add(clock() - t0)
            between()
            return record

        runner.inject_and_check = timed_inject
        summaries, rows = [], []
        start = clock()
        while True:
            far = self.fars[len(summaries) % len(self.fars)]
            summary, frame_rows = runner.run_auto([far], variant="with_idf")
            summaries.append(summary)
            rows.extend(frame_rows)
            if not _keep_going(start, len(summaries), seconds):
                break
        elapsed = clock() - start
        del runner.inject_and_check
        self.summary = campaign.merge_summaries(*summaries)
        self.rows = rows
        return elapsed, latencies

    def outputs(self, runner):
        dev = runner.device
        s = self.summary
        return {
            "attempted": s.total_injections + s.transfer_errors,
            "transfer_errors": s.transfer_errors,
            "critical": s.critical,
            "non_critical": s.non_critical,
            "counters": list(campaign.counters(dev)),
            "digest_restored":
                fabric.snapshot_digest(dev.engine) == self.baseline_digest,
            "frames_csv": campaign.frame_rows_csv(self.rows),
            "map_frames": len(runner.dut.smap.frames),
        }


# -- config_bulk -------------------------------------------------------------------


class BulkState:
    def __init__(self, device, fars, frames, requests, footer):
        self.device = device
        self.fars = fars
        self.frames = frames        # frame word lists in FAR order
        self.requests = requests    # (request bytes, words, frames) per read
        self.footer = footer


class ConfigBulkWorkload:
    """Write every frame in one PS->PL stream, then read the whole device
    back in 9-frame PL->PS transfers.  An operation is one write plus one
    full read-back.  Each operation writes the image rotated by a different
    number of frames, so every frame changes between operations.
    """

    def __init__(self, spec):
        self.image_path = spec["inputs"]["image"]

    def setup(self):
        geometry = fabric.load_geometry("z7020like")
        by_far = fabric.load_frame_dump(self.image_path, geometry)
        device = devc.boot_device(geometry)
        device.set_pcap_clock_divisor(READ_DIVISOR)
        fars = geometry.far_words()
        requests = []
        for i in range(0, len(fars), READ_FRAMES):
            n = min(READ_FRAMES, len(fars) - i)
            seq = packets.build_readback_sequence(fars[i], n)
            requests.append((packets.words_to_bytes(seq.words), len(seq.words), n))
        footer = packets.build_desync_footer().words
        return BulkState(device, fars, [by_far[f] for f in fars], requests,
                         footer)

    def prepare(self, state):
        with open(self.image_path, "rb") as f:
            self.image = f.read()

    def write(self, state, frames):
        dev = state.device
        seq = packets.build_write_frame_sequence(dev.engine.device_id,
                                                 state.fars[0], frames)
        words = seq.words + state.footer
        dev.dram.write_bytes(BULK_ADDR, packets.words_to_bytes(words))
        _acquire(dev)
        dev.dma_enqueue(BULK_ADDR, devc.PL_ADDR, len(words), len(words))
        dev.dma_process()
        dev.drain_events()

    def read_back(self, state):
        dev = state.device
        parts = []
        for data, nwords, n in state.requests:
            dev.dram.write_bytes(READ_REQ_ADDR, data)
            _acquire(dev)
            dev.dma_enqueue(READ_REQ_ADDR, devc.PL_ADDR, nwords, nwords)
            dev.dma_process()
            count = (n + 1) * gen.FRAME_WORDS
            dev.dma_enqueue(devc.PL_ADDR, READ_DST_ADDR, count, count)
            dev.dma_process()
            parts.append(dev.dram.read_bytes(READ_DST_ADDR + gen.FRAME_BYTES,
                                             n * gen.FRAME_BYTES))
        dev.drain_events()
        return parts

    def run(self, state, seconds, between):
        latencies = Latencies()
        self.write_ns, self.read_ns = [], []
        self.errors = self.failed = 0
        n = len(state.frames)
        start = clock()
        while True:
            k = (1 + 1009 * latencies.n) % n
            frames = state.frames[k:] + state.frames[:k]
            t0 = clock()
            try:
                self.write(state, frames)
                t1 = clock()
                parts = self.read_back(state)
            except devc.DevcError:
                self.errors += 1
                t1 = clock()
                parts = []
            t2 = clock()
            latencies.add(t2 - t0)
            self.write_ns.append(t1 - t0)
            self.read_ns.append(t2 - t1)
            # The read-back must equal the rotated image word for word.
            cut = k * gen.FRAME_BYTES
            if b"".join(parts) != self.image[cut:] + self.image[:cut]:
                self.failed += 1
            del parts
            between()
            if not _keep_going(start, latencies.n, seconds):
                break
        return clock() - start, latencies

    def outputs(self, state):
        return {
            "attempted": len(self.write_ns),
            "transfer_errors": self.errors,
            "failed_ops": self.failed,
            "config_write_s": statistics.median(self.write_ns) / 1e9,
            "config_readback_s": statistics.median(self.read_ns) / 1e9,
        }


# -- drc_large -----------------------------------------------------------------------


class DrcWorkload:
    """`idfsim verify-idf` on a large floorplan: an operation is one
    `parse_floorplan` plus `run_all_checks`."""

    def __init__(self, spec):
        self.path = spec["inputs"]["floorplan"]

    def setup(self):
        # What `idfsim verify-idf` does up to the checks: read the file,
        # parse it and gather the provenance header fields.  Every
        # operation parses the text again, as every invocation does.
        with open(self.path, "r", encoding="utf-8") as f:
            text = f.read()
        verifier.parse_floorplan(text)
        env = {"tool_version": cli.__version__, "date": "unknown",
               "design": os.path.splitext(os.path.basename(self.path))[0],
               "directory": os.getcwd(), "user": "perfbench",
               "platform": sys.platform, "host": "localhost"}
        return text, env

    def prepare(self, state):
        pass

    def run(self, state, seconds, between):
        text, env = state
        latencies = Latencies()
        # Per-rule counts only, so memory does not grow with the number
        # of operations.
        self.counts = []
        start = clock()
        while True:
            t0 = clock()
            plan = verifier.parse_floorplan(text)
            _header, violations = verifier.run_all_checks(plan, env)
            latencies.add(clock() - t0)
            per_rule = {}
            for v in violations:
                per_rule[v.check] = per_rule.get(v.check, 0) + 1
            self.counts.append(per_rule)
            del plan, violations
            between()
            if not _keep_going(start, latencies.n, seconds):
                break
        return clock() - start, latencies

    def outputs(self, state):
        return {"attempted": len(self.counts), "rule_counts": self.counts}


WORKLOADS = {
    "campaign_ref20": CampaignWorkload,
    "campaign_devmap": CampaignWorkload,
    "config_bulk": ConfigBulkWorkload,
    "drc_large": DrcWorkload,
}


# -- per-layer metrics -----------------------------------------------------------


def layer_metrics(tracer, ops, map_frames, sim_pcap_s):
    us = tracer.median_self_us
    per_op = {k: v / ops for k, v in tracer.window_counts.items()}
    return {
        "campaign.read_frame_us": us("campaign.read_frame"),
        "campaign.stage_frame_us": us("campaign.stage_frame"),
        "campaign.write_us": us("campaign.write"),
        "campaign.restore_us": us("campaign.restore"),
        "campaign.glue_us": us("campaign.inject_and_check"),
        # Injections per `run_auto` frame: the bits of a frame.
        "campaign.injections": (
            tracer.window_counts.get("campaign.injections", 0)
            / max(tracer.window_calls("campaign.run_auto"), 1)),
        "dut.run_check_us": us("dut.run_check"),
        "dut.map_frames": map_frames,
        "devc.dma_ps2pl_us": us("devc.dma_ps2pl"),
        "devc.dma_pl2ps_us": us("devc.dma_pl2ps"),
        "devc.dma_enqueue_us": us("devc.dma_enqueue"),
        "devc.dram_us": us("devc.dram"),
        "devc.dram_calls": tracer.window_calls("devc.dram") / ops,
        "devc.words_moved": per_op.get("devc.words_moved", 0),
        "devc.events": per_op.get("devc.events", 0),
        "devc.transfer_errors": per_op.get("devc.transfer_errors", 0),
        "devc.sim_pcap_us": sim_pcap_s / ops * 1e6,
        "fabric.execute_us": us("fabric.execute"),
        "fabric.execute_kwords": per_op.get("fabric.execute_words", 0) / 1e3,
        "fabric.next_far_calls": per_op.get("fabric.next_far_calls", 0),
        "packets.build_us": us("packets.build"),
        "packets.words_to_bytes_us": us("packets.words_to_bytes"),
        "verifier.parse_s": us("verifier.parse") / 1e6,
        "verifier.idf2_s": us("verifier.idf2") / 1e6,
        "verifier.idf3_s": us("verifier.idf3") / 1e6,
        "verifier.idf4_s": us("verifier.idf4") / 1e6,
        "verifier.idf5_s": us("verifier.idf5") / 1e6,
        "verifier.idf6_s": us("verifier.idf6") / 1e6,
        "verifier.violations": per_op.get("verifier.violations", 0),
        **{f"{layer}.self_per_op_us": tracer.window_self_us(layer + ".") / ops
           for layer in LAYERS},
    }


# -- main ----------------------------------------------------------------------------------


def main(spec_path):
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    workload = WORKLOADS[spec["workload"]](spec)
    tracer = None
    if spec["trace"]:
        tracer = trace.Tracer()
        trace.install(tracer, MODULES)
        tracer.enabled = True

    # The traced run samples set-up only before the timed region, so that
    # no set-up falls inside a traced span of the timed region.
    setups = SetupSampler(workload, interleave=not spec["trace"])
    state = setups.first()

    if tracer is not None:
        tracer.enabled = False
    workload.prepare(state)
    device = getattr(state, "device", None)
    sim0 = device.sim_seconds if device is not None else 0.0
    gc.collect()
    if tracer is not None:
        tracer.enabled = True
        tracer.start_window()
    setups.start()
    elapsed_ns, latencies = workload.run(state, spec["seconds"],
                                         setups.between)
    if tracer is not None:
        tracer.end_window()

    outputs = workload.outputs(state)
    sim_pcap_s = device.sim_seconds - sim0 if device is not None else None
    del state, device
    ops = latencies.n
    result = {
        "ops": ops,
        "elapsed_s": elapsed_ns / 1e9,
        # Per second of operation time, set-up samples left out.
        "op_per_s": ops / (latencies.total_ns / 1e9),
        "op_us_mean": latencies.total_ns / ops / 1e3,
        "op_us_best": latencies.best() / 1e3,
        "op_us_p10": latencies.percentile(10) / 1e3,
        "op_us_p50": latencies.percentile(50) / 1e3,
        # Only with at least ten samples beyond it.
        "op_us_p99": latencies.percentile(99) / 1e3 if ops >= 1000 else None,
        "setup_s": setups.times.best() / 1e9,
        "setups": setups.times.n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outputs": outputs,
    }
    if sim_pcap_s is not None:
        result["sim_pcap_s"] = sim_pcap_s
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, ops,
                                         outputs.get("map_frames", 0),
                                         sim_pcap_s or 0.0)
        tracer.write(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(sys.argv[1])
