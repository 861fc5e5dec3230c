#!/usr/bin/env python3
"""Validate a --stats-json document produced by the Olden bench binaries.

Usage: check_stats_schema.py STATS.json [STATS2.json ...]
       check_stats_schema.py --diff DIFF.json [DIFF2.json ...]

Default mode checks the structural schema (version 7, documented in
docs/OBSERVABILITY.md) and the arithmetic invariants the exporter
promises: per-processor cycle buckets sum to the makespan, histogram
bucket counts sum to the histogram count, event retention arithmetic is
consistent, and the per-message-class fault decomposition sums exactly
to the aggregate fault counters. Exits non-zero with a message on the
first violation.

--diff validates `olden-analyze --diff --json` documents instead
(diff_schema_version 1, documented in docs/ANALYSIS.md) and
independently re-verifies the exactness invariant: the bucket-row
deltas, and each partition's top rows plus "other" rollup, must sum
exactly to makespan_delta_cycles.

Exit codes: 0 all documents valid, 1 schema or invariant violation,
2 usage error (no document, or any other argument starting with `--`)
or unknown schema version (a reader that only speaks version N must not
guess at version N+1).

Stdlib only, so it can run in any CI image.
"""

import json
import sys

SCHEMA_VERSION = 7
DIFF_SCHEMA_VERSION = 1

MSG_CLASSES = ["migration", "return_stub", "future_resolve", "fill",
               "invalidate", "ts_check"]

FAULT_CLASS_KEYS = ["sent", "drops", "dups", "delays", "retries"]

COUNTER_KEYS = {
    "local_reads", "local_writes",
    "cacheable_reads", "cacheable_writes",
    "cacheable_reads_remote", "cacheable_writes_remote",
    "cache_hits", "cache_misses",
    "timestamp_checks", "timestamp_stalls",
    "migrations", "return_migrations",
    "futurecalls", "futures_inlined", "futures_stolen", "touches_blocked",
    "cache_flushes", "lines_invalidated", "invalidation_messages",
    "tracked_writes", "pages_cached",
    "allocations", "bytes_allocated",
    "fault_messages", "fault_drops", "fault_duplicates", "fault_delays",
    "retransmissions", "duplicates_suppressed", "acks_sent",
    "hiccups_injected", "hiccup_cycles",
    "coherence_requests", "replies_ignored",
    "fills_retried", "invalidations_retried", "ts_checks_retried",
    "threads_created", "makespan_cycles",
}

BUCKET_KEYS = ["compute", "migration", "cache_stall", "coherence", "idle",
               "retry"]

HIST_KEYS = {
    "migration_latency_cycles", "return_stub_latency_cycles",
    "miss_fill_cycles", "ready_queue_depth", "worklist_depth", "page_heat",
}

SCHEMES = {"local", "global", "bilateral"}


class SchemaError(Exception):
    pass


class VersionError(Exception):
    """Unknown schema version: exit 2, distinct from a validation failure."""


def require(cond, msg):
    if not cond:
        raise SchemaError(msg)


def check_counter(obj, key, ctx):
    require(key in obj, f"{ctx}: missing {key!r}")
    require(isinstance(obj[key], int) and obj[key] >= 0,
            f"{ctx}: {key!r} must be a non-negative integer")


def check_histogram(name, h, ctx):
    ctx = f"{ctx} histogram {name!r}"
    for key in ("count", "sum", "min", "max"):
        check_counter(h, key, ctx)
    require(isinstance(h.get("mean"), (int, float)), f"{ctx}: missing mean")
    require(isinstance(h.get("buckets"), list), f"{ctx}: missing buckets")
    total = 0
    prev_hi = -1
    for b in h["buckets"]:
        for key in ("lo", "hi", "count"):
            check_counter(b, key, ctx + " bucket")
        require(b["lo"] <= b["hi"], f"{ctx}: bucket lo > hi")
        require(b["lo"] > prev_hi, f"{ctx}: buckets overlap or out of order")
        prev_hi = b["hi"]
        total += b["count"]
    require(total == h["count"],
            f"{ctx}: bucket counts sum to {total}, header says {h['count']}")
    if h["count"] > 0:
        require(h["min"] <= h["max"], f"{ctx}: min > max")


def check_run(run, idx):
    ctx = f"run[{idx}]"
    require(isinstance(run.get("label"), str) and run["label"],
            f"{ctx}: missing label")
    ctx = f"run[{idx}] ({run['label']})"

    cfg = run.get("config")
    require(isinstance(cfg, dict), f"{ctx}: missing config")
    check_counter(cfg, "nprocs", ctx)
    require(cfg["nprocs"] >= 1, f"{ctx}: nprocs must be >= 1")
    require(cfg.get("scheme") in SCHEMES,
            f"{ctx}: scheme must be one of {sorted(SCHEMES)}")
    require(isinstance(cfg.get("sequential_baseline"), bool),
            f"{ctx}: missing sequential_baseline")

    check_counter(run, "makespan_cycles", ctx)
    require(isinstance(run.get("seconds"), (int, float)),
            f"{ctx}: missing seconds")

    counters = run.get("counters")
    require(isinstance(counters, dict), f"{ctx}: missing counters")
    for key in COUNTER_KEYS:
        check_counter(counters, key, ctx + " counters")
    require(counters["makespan_cycles"] == run["makespan_cycles"],
            f"{ctx}: counters.makespan_cycles disagrees with run")
    require(counters["cache_hits"] + counters["cache_misses"]
            == counters["cacheable_reads_remote"],
            f"{ctx}: hits + misses != remote cacheable reads")
    require(counters["timestamp_stalls"] <= counters["timestamp_checks"],
            f"{ctx}: timestamp_stalls > timestamp_checks")
    require(counters["duplicates_suppressed"]
            <= counters["fault_duplicates"] + counters["retransmissions"],
            f"{ctx}: more duplicates suppressed than were ever created")
    require(counters["coherence_requests"] <= counters["fault_messages"],
            f"{ctx}: more coherence requests than wire messages")

    classes = run.get("fault_classes")
    require(isinstance(classes, dict), f"{ctx}: missing fault_classes")
    require(list(classes.keys()) == MSG_CLASSES,
            f"{ctx}: fault_classes keys must be exactly {MSG_CLASSES}, "
            f"in order")
    agg = {key: 0 for key in FAULT_CLASS_KEYS}
    for cls, row in classes.items():
        cctx = f"{ctx} fault_classes[{cls!r}]"
        require(isinstance(row, dict), f"{cctx}: must be an object")
        require(list(row.keys()) == FAULT_CLASS_KEYS,
                f"{cctx}: keys must be exactly {FAULT_CLASS_KEYS}, in order")
        for key in FAULT_CLASS_KEYS:
            check_counter(row, key, cctx)
            agg[key] += row[key]
    # The per-class decomposition must sum exactly to the aggregates: a
    # message the injector touched belongs to exactly one class.
    for key, counter in (("sent", "fault_messages"), ("drops", "fault_drops"),
                         ("dups", "fault_duplicates"),
                         ("delays", "fault_delays"),
                         ("retries", "retransmissions")):
        require(agg[key] == counters[counter],
                f"{ctx}: fault_classes {key} sum to {agg[key]}, "
                f"{counter} says {counters[counter]}")
    for counter, cls in (("fills_retried", "fill"),
                         ("invalidations_retried", "invalidate"),
                         ("ts_checks_retried", "ts_check")):
        require(counters[counter] == classes[cls]["retries"],
                f"{ctx}: {counter} is {counters[counter]}, fault_classes "
                f"says {classes[cls]['retries']}")

    hists = run.get("histograms")
    require(isinstance(hists, dict), f"{ctx}: missing histograms")
    for name, h in hists.items():
        require(name in HIST_KEYS, f"{ctx}: unknown histogram {name!r}")
        check_histogram(name, h, ctx)

    breakdown = run.get("breakdown")
    require(isinstance(breakdown, list), f"{ctx}: missing breakdown")
    require(len(breakdown) == cfg["nprocs"],
            f"{ctx}: breakdown has {len(breakdown)} rows, nprocs is "
            f"{cfg['nprocs']}")
    for row in breakdown:
        check_counter(row, "proc", ctx + " breakdown")
        check_counter(row, "clock", ctx + " breakdown")
        total = 0
        for key in BUCKET_KEYS:
            check_counter(row, key, ctx + " breakdown")
            total += row[key]
        require(total == run["makespan_cycles"],
                f"{ctx}: proc {row['proc']} buckets sum to {total}, "
                f"makespan is {run['makespan_cycles']}")
        require(row["clock"] <= run["makespan_cycles"],
                f"{ctx}: proc {row['proc']} clock exceeds makespan")

    events = run.get("events")
    require(isinstance(events, dict), f"{ctx}: missing events")
    require(isinstance(events.get("counts"), dict),
            f"{ctx}: missing events.counts")
    check_counter(events, "retained", ctx + " events")
    check_counter(events, "dropped", ctx + " events")


def check_document(doc, path):
    require(isinstance(doc, dict), f"{path}: top level must be an object")
    version = doc.get("schema_version")
    require(isinstance(version, int), f"{path}: missing schema_version")
    if version != SCHEMA_VERSION:
        raise VersionError(
            f"{path}: unknown schema_version {version} (this checker "
            f"speaks {SCHEMA_VERSION})")
    require(doc.get("generator") == "olden-trace",
            f"{path}: generator must be 'olden-trace'")
    require(isinstance(doc.get("trace_truncated"), bool),
            f"{path}: missing trace_truncated flag")
    runs = doc.get("runs")
    require(isinstance(runs, list), f"{path}: missing runs array")
    for idx, run in enumerate(runs):
        check_run(run, idx)
    any_dropped = any(run["events"]["dropped"] > 0 for run in runs)
    require(doc["trace_truncated"] == any_dropped,
            f"{path}: trace_truncated is {doc['trace_truncated']}, but "
            f"dropped-event counts say {any_dropped}")
    return len(runs)


def check_delta_row(row, ctx):
    """A {a, b, delta} triple; returns the delta after checking b - a."""
    for key in ("a", "b"):
        check_counter(row, key, ctx)
    require(isinstance(row.get("delta"), int), f"{ctx}: missing delta")
    require(row["delta"] == row["b"] - row["a"],
            f"{ctx}: delta is {row['delta']}, b - a is "
            f"{row['b'] - row['a']}")
    return row["delta"]


def check_diff_side(side, ctx):
    require(isinstance(side, dict), f"{ctx}: missing side object")
    require(isinstance(side.get("path"), str) and side["path"],
            f"{ctx}: missing path")
    require(isinstance(side.get("label"), str) and side["label"],
            f"{ctx}: missing label")
    for key in ("nprocs", "makespan_cycles", "events"):
        check_counter(side, key, ctx)
    require(isinstance(side.get("truncated"), bool),
            f"{ctx}: missing truncated flag")


def check_partition(part, name, want_delta, key_field, ctx):
    """A sites/pages/edges object: delta_sum + top rows + other rollup.

    Re-derives the exactness invariant from the emitted rows alone: the
    top rows and the "other" rollup must sum to delta_sum, and delta_sum
    must equal the makespan delta.
    """
    ctx = f"{ctx} {name}"
    require(isinstance(part, dict), f"{ctx}: missing partition object")
    require(isinstance(part.get("delta_sum"), int),
            f"{ctx}: missing delta_sum")
    require(isinstance(part.get("top"), list), f"{ctx}: missing top")
    emitted = 0
    for i, row in enumerate(part["top"]):
        rctx = f"{ctx} top[{i}]"
        require(isinstance(row, dict), f"{rctx}: must be an object")
        if key_field == "edge":
            for key in ("src", "dst", "bucket"):
                require(isinstance(row.get(key), str) and row[key],
                        f"{rctx}: missing {key}")
            require(row["bucket"] in BUCKET_KEYS,
                    f"{rctx}: unknown bucket {row['bucket']!r}")
            require("site" in row, f"{rctx}: missing site")
            require(row["site"] is None or isinstance(row["site"], int),
                    f"{rctx}: site must be an integer or null")
        else:
            require(key_field in row, f"{rctx}: missing {key_field}")
            require(row[key_field] is None
                    or isinstance(row[key_field], int),
                    f"{rctx}: {key_field} must be an integer or null")
        emitted += check_delta_row(row, rctx)
    require(isinstance(part.get("other"), dict), f"{ctx}: missing other")
    emitted += check_delta_row(part["other"], ctx + " other")
    require(emitted == part["delta_sum"],
            f"{ctx}: top + other deltas sum to {emitted}, delta_sum says "
            f"{part['delta_sum']}")
    require(part["delta_sum"] == want_delta,
            f"{ctx}: delta_sum is {part['delta_sum']}, makespan delta is "
            f"{want_delta} — exactness invariant violated")


def check_diff(diff, idx):
    ctx = f"diff[{idx}]"
    for side in ("a", "b"):
        check_diff_side(diff.get(side), f"{ctx} side {side!r}")
    ctx = f"diff[{idx}] ({diff['a']['label']} vs {diff['b']['label']})"

    require(isinstance(diff.get("makespan_delta_cycles"), int),
            f"{ctx}: missing makespan_delta_cycles")
    delta = diff["makespan_delta_cycles"]
    require(delta == diff["b"]["makespan_cycles"]
            - diff["a"]["makespan_cycles"],
            f"{ctx}: makespan_delta_cycles disagrees with the sides")
    require(isinstance(diff.get("makespan_delta_percent"), (int, float)),
            f"{ctx}: missing makespan_delta_percent")
    require(diff.get("exact") is True, f"{ctx}: missing exact:true")

    buckets = diff.get("buckets")
    require(isinstance(buckets, list)
            and all(isinstance(b, dict) for b in buckets),
            f"{ctx}: missing buckets")
    require([b.get("bucket") for b in buckets] == BUCKET_KEYS,
            f"{ctx}: buckets must be exactly {BUCKET_KEYS}, in order")
    total = sum(check_delta_row(b, f"{ctx} bucket {b['bucket']!r}")
                for b in buckets)
    require(total == delta,
            f"{ctx}: bucket deltas sum to {total}, makespan delta is "
            f"{delta} — exactness invariant violated")

    check_partition(diff.get("sites"), "sites", delta, "site", ctx)
    check_partition(diff.get("pages"), "pages", delta, "page", ctx)
    check_partition(diff.get("edges"), "edges", delta, "edge", ctx)

    retries = diff.get("retries_by_class")
    require(isinstance(retries, dict), f"{ctx}: missing retries_by_class")
    require(list(retries.keys()) == MSG_CLASSES + ["unknown"],
            f"{ctx}: retries_by_class keys must be exactly "
            f"{MSG_CLASSES + ['unknown']}, in order")
    for cls, row in retries.items():
        rctx = f"{ctx} retries_by_class[{cls!r}]"
        require(isinstance(row, dict), f"{rctx}: must be an object")
        check_delta_row(row, rctx)

    chains = diff.get("chains")
    require(isinstance(chains, dict), f"{ctx}: missing chains")
    for key in ("a", "b", "aligned"):
        check_counter(chains, key, ctx + " chains")
    require(chains["aligned"] <= min(chains["a"], chains["b"]),
            f"{ctx}: more chains aligned than either side has")


def check_diff_document(doc, path):
    require(isinstance(doc, dict), f"{path}: top level must be an object")
    require(doc.get("diff_schema_version") == DIFF_SCHEMA_VERSION,
            f"{path}: diff_schema_version must be {DIFF_SCHEMA_VERSION}, "
            f"got {doc.get('diff_schema_version')!r}")
    require(doc.get("generator") == "olden-analyze",
            f"{path}: generator must be 'olden-analyze'")
    require(isinstance(doc.get("trace_version"), int),
            f"{path}: missing trace_version")
    diffs = doc.get("diffs")
    require(isinstance(diffs, list), f"{path}: missing diffs array")
    for idx, diff in enumerate(diffs):
        check_diff(diff, idx)
    return len(diffs)


def main(argv):
    args = argv[1:]
    mode = "stats"
    if args and args[0] == "--diff":
        mode = "diff"
        args = args[1:]
    # A flag anywhere else (a removed mode, a misspelt one) is a usage
    # error, not a document path.
    if not args or any(a.startswith("--") for a in args):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in args:
        try:
            with open(path, "r", encoding="utf-8") as f:
                doc = json.load(f)
            if mode == "diff":
                n = check_diff_document(doc, path)
            else:
                n = check_document(doc, path)
        except (OSError, json.JSONDecodeError, SchemaError) as e:
            print(f"FAIL {path}: {e}", file=sys.stderr)
            return 1
        except VersionError as e:
            print(f"FAIL {path}: {e}", file=sys.stderr)
            return 2
        if mode == "diff":
            print(f"OK   {path}: {n} diff(s), "
                  f"diff schema v{DIFF_SCHEMA_VERSION}, exactness verified")
        else:
            print(f"OK   {path}: {n} run(s), schema v{SCHEMA_VERSION}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
