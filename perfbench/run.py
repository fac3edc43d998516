"""idfsim benchmark: generate inputs, run one workload, check and report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; idfsim is imported from `src/`.
The seed alone determines the inputs, which are generated into
`.perfbench_out/` and handed to a fresh worker process (`worker.py`) that
drives idfsim's public API for S seconds, one caller in a closed loop.
This script then checks the program's outputs against expectations computed
independently from the seed, and prints a `perfbench-detail` line followed
by one JSON result line:

* `--trace 0`: the end-to-end metrics of an untraced run;
* `--trace 1`: an untraced and then a traced run of S/2 seconds each, each
  in its own process; the per-layer metrics come from the traced one,
  `trace.overhead_frac` compares the two, and the spans are kept in
  `.perfbench_out/`.

An operation is one injection in the campaign workloads, one full-device
write plus full read-back in `config_bulk`, and one parse plus all checks in
`drc_large`.  End-to-end metrics: `op_us_best`, the median operation latency
in the fastest 50 ms window of the run; `setup_s`, the same statistic over
program set-ups repeated between operations all through the run;
`peak_rss_mb` of the worker.  The benchmark does no CPU pinning or
frequency control.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
DEADLINE_S = 170           # the whole invocation, workers included

OPERATIONS = {
    "campaign_ref20": "one injection (inject_and_check)",
    "campaign_devmap": "one injection (inject_and_check)",
    "config_bulk": "one full-device write plus full read-back",
    "drc_large": "one parse_floorplan plus run_all_checks",
}

END_TO_END_UNITS = {"op_us_best": "us", "setup_s": "s", "peak_rss_mb": "MB"}


def _unit(name):
    for suffix, unit in (("_us", "us"), ("_s", "s"), ("_frac", "frac"),
                         ("_kwords", "kword")):
        if name.endswith(suffix):
            return unit
    return "count"


def make_inputs(workload, seed, work):
    """Write the workload's input files; return (spec fields, expectations)."""
    if workload.startswith("campaign_"):
        n_frames = gen.REF_FRAMES if workload == "campaign_ref20" else (
            2 * gen.Z7020_COLUMNS * gen.Z7020_MINORS)
        text, per_frame = gen.sensitivity_map(seed, n_frames)
        path = work / "sensitivity.map"
        path.write_text(text, encoding="utf-8")
        frames = gen.campaign_frames(seed, workload)
        return ({"inputs": {"map": str(path)}, "frames": frames},
                {"per_frame": per_frame, "frames": frames})
    if workload == "config_bulk":
        path = work / "device.frames"
        path.write_bytes(gen.frame_image(seed))
        return {"inputs": {"image": str(path)}}, {}
    text, counts = gen.floorplan(seed)
    path = work / "large.fp"
    path.write_text(text, encoding="utf-8")
    return {"inputs": {"floorplan": str(path)}}, {"rule_counts": counts}


def judge(workload, outputs, expected):
    """Failed operations and the names of the checks that did not hold."""
    problems = []
    if workload.startswith("campaign_"):
        fars = expected["frames"]
        got = outputs["frames_csv"].splitlines()
        n_rows = len(got) - 1
        run_fars = [fars[i % len(fars)] for i in range(n_rows)]
        want = gen.expected_frames_csv(run_fars, expected["per_frame"])
        failed = outputs["transfer_errors"]
        for g, w in zip(got[1:], want.splitlines()[1:]):
            if g != w:
                failed += gen.FRAME_BITS
        if failed:
            problems.append("frames.csv")
        if outputs["counters"] != [outputs["critical"], outputs["non_critical"]]:
            problems.append("counters")
        if not outputs["digest_restored"]:
            problems.append("snapshot_digest")
        if problems and not failed:
            failed = outputs["attempted"]
        outputs["frames_csv_sha256"] = gen.sha256_text(outputs["frames_csv"])
        outputs["frames_csv_rows"] = n_rows
        del outputs["frames_csv"]
    elif workload == "config_bulk":
        failed = outputs["failed_ops"]
        if failed:
            problems.append("readback")
    else:
        want = expected["rule_counts"]
        failed = sum(1 for c in outputs["rule_counts"]
                     if {k: c.get(k, 0) for k in want} != want)
        if failed:
            problems.append("rule_counts")
        outputs["rule_counts"] = outputs["rule_counts"][0]
        outputs["expected_rule_counts"] = want
    return failed, problems


def run_worker(workload, seed, seconds, traced, work, fields, deadline):
    tag = "traced" if traced else "untraced"
    spec = dict(fields, workload=workload, seed=seed, seconds=seconds,
                trace=traced, result=str(work / f"result-{tag}.json"),
                spans=str(OUT / f"spans-{workload}.bin"))
    spec_path = work / f"spec-{tag}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("no time left for the worker")
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                   check=True, timeout=timeout, cwd=ROOT)
    with open(spec["result"], encoding="utf-8") as f:
        return json.load(f)


def stamp():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "note": "no CPU pinning or frequency control; no accuracy-error "
                    "claim, since campaign totals follow the sensitivity "
                    "map by construction"}


def detail_metrics(workload, res):
    """Every end-to-end figure of the untraced run, for the detail line."""
    out = {"op_per_s": (res["op_per_s"], "1/s"),
           "op_us_best": (res["op_us_best"], "us"),
           "op_us_p10": (res["op_us_p10"], "us"),
           "op_us_p50": (res["op_us_p50"], "us")}
    if res["op_us_p99"] is not None:
        out["op_us_p99"] = (res["op_us_p99"], "us")
    if workload == "config_bulk":
        out["config_write_s"] = (res["outputs"]["config_write_s"], "s")
        out["config_readback_s"] = (res["outputs"]["config_readback_s"], "s")
    if "sim_pcap_s" in res:
        out["sim_pcap_s"] = (res["sim_pcap_s"], "s")
    out["failed_frac"] = (res["failed"] / res["ops"], "frac")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(OPERATIONS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "idfsim" / "__init__.py").is_file():
        print(f"error: no idfsim sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    work = OUT / f"run-{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        fields, expected = make_inputs(args.workload, args.seed, work)
        # A traced invocation splits its seconds between the two runs.
        seconds = args.seconds / 2 if args.trace else args.seconds
        runs = [run_worker(args.workload, args.seed, seconds, False, work,
                           fields, deadline)]
        if args.trace:
            runs.append(run_worker(args.workload, args.seed, seconds, True,
                                   work, fields, deadline))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = []
    for res in runs:
        res["failed"], bad = judge(args.workload, res["outputs"], expected)
        problems.extend(bad)
    plain = runs[0]
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "ops": plain["ops"],
              "elapsed_s": plain["elapsed_s"], "setups": plain["setups"],
              "checks_failed": sorted(set(problems)),
              "op": OPERATIONS[args.workload],
              "metrics": detail_metrics(args.workload, plain),
              "outputs": plain["outputs"], "stamp": stamp()}
    if args.trace:
        # Self times of all layers per operation against the traced mean
        # operation time: what the trace leaves unattributed.
        traced = runs[1]
        detail["trace_accounting"] = {
            "op_us_mean_untraced": plain["op_us_mean"],
            "op_us_mean_traced": traced["op_us_mean"],
            "layers_self_per_op_us": sum(
                v for k, v in traced["layers"].items()
                if k.endswith(".self_per_op_us"))}
    print("perfbench-detail " + json.dumps(detail, sort_keys=True))

    if args.trace:
        values = dict(traced["layers"])
        values["trace.overhead_frac"] = (traced["op_us_best"]
                                         / plain["op_us_best"] - 1)
        if args.workload == "config_bulk":
            values["config.write_s"] = plain["outputs"]["config_write_s"]
            values["config.readback_s"] = plain["outputs"]["config_readback_s"]
        else:
            values["config.write_s"] = values["config.readback_s"] = 0.0
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}
    else:
        metrics = {k: {"value": plain[k], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
    result = {"correct": not problems,
              "attempted": sum(r["ops"] for r in runs),
              "failed": sum(r["failed"] for r in runs),
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
