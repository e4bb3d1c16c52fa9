#!/usr/bin/env python3
"""Benchmark regression gate (run by the release CI job).

Compares two BENCH_batch_service.json files -- a committed baseline and
a fresh candidate run -- and fails when any *flagged section* (the bench
families that carry a ROADMAP acceptance claim) regresses by more than
--threshold (default 10%).

Method: for every benchmark name present in both files, compute the
real_time ratio candidate/baseline. Because baseline and candidate
usually come from different machines, every ratio is first divided by
the median ratio across the whole suite (--no-normalize disables this),
so what is detected is a section slowing down *relative to the rest of
the suite*, not the hardware. A section's score is the geometric mean of
its normalized ratios; score > 1 + threshold fails. A flagged benchmark
name that exists in the baseline but not in the candidate also fails:
silently losing a measured config is itself a regression. So does a
candidate with no benchmark at all in a flagged or REQUIRED_SECTIONS
family.

Usage: tools/bench_compare.py BASELINE.json CANDIDATE.json [--threshold 0.10]
"""

import argparse
import json
import math
import sys

# One entry per flagged section: the benchmark families whose perf the
# ROADMAP acceptance bars reference. Names match up to the first '/'.
FLAGGED_SECTIONS = [
    "BM_ShapeFullRelation",
    "BM_ShapeFromRootSet",
    "BM_ShapeBoolean",
    "BM_ShapeFromRootExcept",
    "BM_Batch100StoreSharded",
    "BM_StreamFirstK",
    "BM_AxisBuildDense",
    "BM_AxisBuildInterval",
    "BM_AxisImage",
    "BM_SparseCompose",
    "BM_CrossoverFullRelation",
    "BM_SubrelationReuse",
    "BM_ChainReassociation",
    "BM_SnapshotSaveLoad",
    "BM_SpillThrash",
    "BM_DensifyRunList",
    "BM_NaryBatchVsDrain",
    "BM_NaryUnionBatch",
    "BM_ProjectedEnumeration",
]

# Families that carry no timing bar but must still be measured: a run
# whose candidate lacks any family here or in FLAGGED_SECTIONS fails, so
# a new family is registered in exactly one place.
REQUIRED_SECTIONS = [
    "BM_MaterializeAll",
    "BM_MillionNodeAxisMemory",
]

# Absolute acceptance bars on measured counters, independent of the
# baseline: (benchmark name prefix, counter, minimum value). The ROADMAP
# claims snapshot reload beats parse+reindex(+axis warmup) by >= 5x at
# 2048 nodes; if the counter sinks below that, the persistence layer's
# reason to exist has regressed no matter what the baseline says.
#
# Counters are read from --counters FILE when given, else from the
# candidate. reload_speedup models cold startup, so CI produces the
# counters file with a dedicated fresh-process run of the snapshot
# section (a warm allocator halves parse cost and understates the
# ratio -- see the comment above BM_SnapshotSaveLoad).
COUNTER_BOUNDS = [
    ("BM_SnapshotSaveLoad/2048", "reload_speedup", 5.0),
]

UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_times(path):
    """name -> real_time in ns, for plain (non-aggregate) iterations."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    times = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type", "iteration") != "iteration":
            continue
        name = bench["name"]
        scale = UNIT_NS.get(bench.get("time_unit", "ns"), 1.0)
        times[name] = float(bench["real_time"]) * scale
    return times


def check_counter_bounds(path):
    """COUNTER_BOUNDS violations in a benchmark JSON, as error strings.

    Counters live as plain numeric fields on each benchmark object in
    google-benchmark's JSON. A bound with no matching benchmark is an
    error too: losing the measured config silently would un-gate the
    acceptance claim.
    """
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    errors = []
    for prefix, counter, minimum in COUNTER_BOUNDS:
        matched = False
        for bench in doc.get("benchmarks", []):
            if bench.get("run_type", "iteration") != "iteration":
                continue
            if not bench["name"].startswith(prefix):
                continue
            matched = True
            value = bench.get(counter)
            if value is None:
                errors.append(f"{bench['name']}: counter '{counter}' missing")
            elif float(value) < minimum:
                errors.append(f"{bench['name']}: {counter}={float(value):.2f} "
                              f"below required {minimum:g}")
        if not matched:
            errors.append(f"counter bound '{prefix}' matched no candidate "
                          f"benchmark")
    return errors


def section_of(name):
    return name.split("/", 1)[0]


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="allowed per-section geomean slowdown "
                             "(default 0.10 = 10%%)")
    parser.add_argument("--no-normalize", action="store_true",
                        help="compare raw times (same-machine runs only)")
    parser.add_argument("--counters", default=None, metavar="FILE",
                        help="benchmark JSON to check COUNTER_BOUNDS "
                             "against (default: the candidate file)")
    args = parser.parse_args()

    base = load_times(args.baseline)
    cand = load_times(args.candidate)
    common = sorted(set(base) & set(cand))
    if not common:
        print("FAIL: no benchmark names in common")
        return 1

    ratios = {n: cand[n] / base[n] for n in common if base[n] > 0}
    norm = 1.0
    if not args.no_normalize:
        ordered = sorted(ratios.values())
        norm = ordered[len(ordered) // 2]  # median: machine-speed proxy
        if norm <= 0:
            norm = 1.0

    errors = []
    cand_sections = {section_of(n) for n in cand}
    for section in FLAGGED_SECTIONS + REQUIRED_SECTIONS:
        if section not in cand_sections:
            errors.append(f"{section}: required section missing from "
                          f"candidate")
    for section in FLAGGED_SECTIONS:
        in_base = [n for n in base if section_of(n) == section]
        in_cand = [n for n in cand if section_of(n) == section]
        if not in_base:
            continue  # baseline predates this section: nothing to gate
        missing = sorted(set(in_base) - set(in_cand))
        for name in missing:
            errors.append(f"{section}: '{name}' missing from candidate")
        section_ratios = [ratios[n] / norm for n in in_base
                          if n in ratios]
        if not section_ratios:
            continue
        score = geomean(section_ratios)
        verdict = "FAIL" if score > 1.0 + args.threshold else "ok"
        print(f"{verdict:4} {section}: x{score:.3f} relative "
              f"({len(section_ratios)} configs)")
        if score > 1.0 + args.threshold:
            errors.append(
                f"{section}: geomean slowdown x{score:.3f} exceeds "
                f"1 + {args.threshold:.2f}")

    errors.extend(check_counter_bounds(args.counters or args.candidate))

    for error in errors:
        print(f"FAIL: {error}")
    print(f"bench_compare: {len(common)} common benchmarks, "
          f"median ratio {norm:.3f}, {len(errors)} error(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
