#!/usr/bin/env python3
"""Compare two BENCH JSON files produced by tools/bench_runner.py.

Usage: bench_compare.py OLD.json NEW.json [--threshold PCT]
                        [--cell BENCHMARK/SCHEME/NPROCS]
                        [--traces-old DIR --traces-new DIR --analyze BIN]
                        [--diff-top K]
       bench_compare.py --check FILE.json

Cells are keyed by (benchmark, scheme, nprocs). The comparison FAILS
(exit 1) when a cell present in OLD is missing from NEW, or when a
cell's makespan regressed by more than --threshold percent (default 5).
Every regressed cell is reported — the comparison never stops at the
first one. Because the simulator is fully deterministic, any makespan
change at all is a real behavioral change; the threshold only decides
how large a slowdown blocks CI. Improvements and sub-threshold drifts
are reported but don't fail.

--cell restricts the comparison to one cell, e.g. --cell TreeAdd/local/8.

--traces-old/--traces-new name archives written by bench_runner.py
--keep-traces (one <benchmark>.trace.bin per benchmark). When both are
given along with --analyze (the olden-analyze binary), every regressed
cell whose traces exist on both sides is automatically attributed:
`olden-analyze --diff` decomposes the makespan delta and the top-K
responsible edges, sites and buckets are attached to the report
(--diff-top, default 5). A run that regressed *and* carries at least one
such attribution exits 5 instead of 1, so CI can tell "regression with a
named cause" from a bare failure. Attribution is strictly best-effort
per cell: an archive missing one cell's trace (an interrupted
--keep-traces run), an analyze binary that fails, or a diff document
with an unexpected shape degrades that one cell to a "trace
unavailable"/"no diff attribution" note — it never aborts the pass or
changes the exit-code contract below.

--check validates a single file's schema (structure, bucket arithmetic,
critical-path exactness) without comparing — used by CI on freshly
generated files before they're trusted as a comparison side.

Exit codes are distinct so CI scripts can tell the failure modes apart:
  0  OK
  1  comparison failed (regression, or a baseline cell missing from NEW)
  2  usage error
  3  an input file is unusable (missing, unreadable, empty, not JSON, or
     schema-invalid) — always a one-line error, never a traceback
  4  the requested --cell is absent from both files, or the two files
     share no cells at all
  5  regression found AND at least one cell's diff attribution was
     attached (--traces-old/--traces-new/--analyze)

Stdlib only, so it can run in any CI image.
"""

import json
import os
import subprocess
import sys

BENCH_SCHEMA_VERSION = 1

BUCKET_KEYS = ["compute", "migration", "cache_stall", "coherence", "idle"]

SCHEMES = {"local", "global", "bilateral"}


EXIT_OK = 0
EXIT_COMPARE_FAILED = 1
EXIT_USAGE = 2
EXIT_BAD_INPUT = 3
EXIT_NO_SUCH_CELL = 4
EXIT_REGRESSION_ATTRIBUTED = 5

DIFF_SCHEMA_VERSION = 1


class SchemaError(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise SchemaError(msg)


def check_document(doc, path):
    require(isinstance(doc, dict), f"{path}: top level must be an object")
    require(doc.get("bench_schema_version") == BENCH_SCHEMA_VERSION,
            f"{path}: bench_schema_version must be {BENCH_SCHEMA_VERSION}, "
            f"got {doc.get('bench_schema_version')!r}")
    require(doc.get("generator") == "bench_runner",
            f"{path}: generator must be 'bench_runner'")
    require(isinstance(doc.get("revision"), str),
            f"{path}: missing revision")
    require(doc.get("mode") in ("tiny", "default", "paper"),
            f"{path}: mode must be 'tiny', 'default' or 'paper'")
    require(isinstance(doc.get("nprocs"), int) and doc["nprocs"] >= 1,
            f"{path}: nprocs must be a positive integer")
    cells = doc.get("cells")
    require(isinstance(cells, list) and cells, f"{path}: missing cells")
    seen = set()
    for cell in cells:
        ctx = (f"{path} cell "
               f"{cell.get('benchmark')}/{cell.get('scheme')}")
        require(isinstance(cell.get("benchmark"), str) and cell["benchmark"],
                f"{ctx}: missing benchmark")
        require(cell.get("scheme") in SCHEMES,
                f"{ctx}: scheme must be one of {sorted(SCHEMES)}")
        require(isinstance(cell.get("nprocs"), int) and cell["nprocs"] >= 1,
                f"{ctx}: bad nprocs")
        key = cell_key(cell)
        require(key not in seen, f"{ctx}: duplicate cell")
        seen.add(key)
        require(isinstance(cell.get("makespan_cycles"), int)
                and cell["makespan_cycles"] > 0,
                f"{ctx}: bad makespan_cycles")
        buckets = cell.get("buckets")
        require(isinstance(buckets, dict), f"{ctx}: missing buckets")
        for bkey in BUCKET_KEYS:
            require(isinstance(buckets.get(bkey), int) and buckets[bkey] >= 0,
                    f"{ctx}: bucket {bkey!r} must be a non-negative integer")
        # Per-processor buckets each sum to the makespan, so the totals sum
        # to nprocs * makespan.
        require(sum(buckets[k] for k in BUCKET_KEYS)
                == cell["nprocs"] * cell["makespan_cycles"],
                f"{ctx}: buckets don't sum to nprocs * makespan")
        require(isinstance(cell.get("counters"), dict),
                f"{ctx}: missing counters")
        require(isinstance(cell.get("miss_rate_percent"), (int, float)),
                f"{ctx}: missing miss_rate_percent")
        cp = cell.get("critical_path")
        if cp is not None:
            require(cp.get("total_cycles") == cell["makespan_cycles"],
                    f"{ctx}: critical path != makespan")
            attr = cp.get("attribution")
            require(isinstance(attr, dict), f"{ctx}: missing attribution")
            require(sum(attr.get(k, 0) for k in BUCKET_KEYS)
                    == cp["total_cycles"],
                    f"{ctx}: attribution doesn't sum to the path length")
    return len(cells)


def cell_key(cell):
    return (cell["benchmark"], cell["scheme"], cell["nprocs"])


def load(path):
    """Load and validate one BENCH file; SchemaError on anything unusable."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise SchemaError(f"{path}: cannot read file ({e.strerror})")
    if not text.strip():
        raise SchemaError(f"{path}: file is empty")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}: not valid JSON ({e.msg} at line "
                          f"{e.lineno})")
    check_document(doc, path)
    return doc


def parse_cell_selector(sel):
    """BENCHMARK/SCHEME/NPROCS -> cell key tuple, or None if malformed."""
    parts = sel.split("/")
    if len(parts) != 3 or not parts[0] or not parts[1]:
        return None
    try:
        nprocs = int(parts[2])
    except ValueError:
        return None
    return (parts[0], parts[1], nprocs)


def compare(old_doc, new_doc, threshold, only_cell=None):
    """Print the comparison; return (ok, regressed_keys)."""
    old = {cell_key(c): c for c in old_doc["cells"]}
    new = {cell_key(c): c for c in new_doc["cells"]}
    if only_cell is not None:
        old = {k: v for k, v in old.items() if k == only_cell}
        new = {k: v for k, v in new.items() if k == only_cell}
    regressions, improvements, drifts = [], [], []
    regressed_keys = []
    missing = sorted(set(old) - set(new))
    added = sorted(set(new) - set(old))
    for key in sorted(set(old) & set(new)):
        name = f"{key[0]}/{key[1]}/p={key[2]}"
        before = old[key]["makespan_cycles"]
        after = new[key]["makespan_cycles"]
        delta = 100.0 * (after - before) / before
        line = f"{name}: {before} -> {after} cycles ({delta:+.2f}%)"
        if delta > threshold:
            regressions.append(line)
            regressed_keys.append(key)
        elif delta < -threshold:
            improvements.append(line)
        elif after != before:
            drifts.append(line)

    for title, lines in (("REGRESSION", regressions),
                         ("improvement", improvements),
                         ("drift (within threshold)", drifts)):
        for line in lines:
            print(f"{title:>24}  {line}")
    for key in missing:
        print(f"{'MISSING CELL':>24}  {key[0]}/{key[1]}/p={key[2]}")
    for key in added:
        print(f"{'new cell':>24}  {key[0]}/{key[1]}/p={key[2]}")

    compared = len(set(old) & set(new))
    unchanged = compared - len(regressions) - len(improvements) - len(drifts)
    print(f"compared {compared} cells "
          f"({old_doc['revision']} -> {new_doc['revision']}): "
          f"{unchanged} unchanged, {len(drifts)} drifted, "
          f"{len(improvements)} improved, {len(regressions)} regressed, "
          f"{len(missing)} missing (threshold {threshold:g}%)")
    ok = not regressions and not missing
    return ok, regressed_keys


def describe_edge(edge):
    where = f" @ site {edge['site']}" if edge.get("site") is not None else ""
    return (f"{edge['delta']:+d} {edge['bucket']} "
            f"{edge['src']} -> {edge['dst']}{where} "
            f"({edge['a']} -> {edge['b']})")


def attribute_regression(key, diff_cfg):
    """Diff one regressed cell's archived traces; True if attached.

    A missing trace or a failing olden-analyze degrades to a note, never
    an error: attribution is best-effort garnish on an already-failing
    comparison."""
    bench, scheme, nprocs = key
    name = f"{bench}/{scheme}/p={nprocs}"
    old_trace = os.path.join(diff_cfg["traces_old"], f"{bench}.trace.bin")
    new_trace = os.path.join(diff_cfg["traces_new"], f"{bench}.trace.bin")
    missing = [p for p in (old_trace, new_trace) if not os.path.isfile(p)]
    if missing:
        # An interrupted --keep-traces run leaves a partial archive; the
        # cells it did capture still deserve attribution.
        print(f"  {name}: trace unavailable "
              f"({', '.join(missing)}) — skipping attribution")
        return False
    label = f"BENCH/{bench}/p={nprocs}/{scheme}"
    cmd = [diff_cfg["analyze"], "--diff", old_trace, new_trace,
           "--run", label, "--json", "--top", str(diff_cfg["top"])]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
    except OSError as e:
        print(f"  {name}: no diff attribution (cannot run "
              f"{diff_cfg['analyze']}: {e.strerror})")
        return False
    if proc.returncode != 0:
        print(f"  {name}: no diff attribution (olden-analyze exit "
              f"{proc.returncode}: {proc.stderr.strip()})")
        return False
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError:
        print(f"  {name}: no diff attribution (unparseable diff JSON)")
        return False
    if doc.get("diff_schema_version") != DIFF_SCHEMA_VERSION or \
            not doc.get("diffs"):
        print(f"  {name}: no diff attribution (unexpected diff schema "
              f"{doc.get('diff_schema_version')!r})")
        return False
    try:
        d = doc["diffs"][0]
        print(f"  {name}: {d['makespan_delta_cycles']:+d} cycles "
              f"({d['makespan_delta_percent']:+.2f}%), attributed exactly:")
        moved = [b for b in d["buckets"] if b["delta"] != 0]
        moved.sort(key=lambda b: -abs(b["delta"]))
        print("    buckets: " + (", ".join(
            f"{b['bucket']} {b['delta']:+d}" for b in moved)
            or "(no movement)"))
        for edge in d["edges"]["top"]:
            print(f"    edge {describe_edge(edge)}")
        for site in d["sites"]["top"]:
            sname = ("(no site)" if site.get("site") is None
                     else f"site {site['site']}")
            print(f"    {sname}: {site['delta']:+d} "
                  f"({site['a']} -> {site['b']})")
    except (KeyError, IndexError, TypeError, ValueError) as e:
        # A malformed diff document from a mismatched analyze build must
        # not traceback out of the whole attribution pass.
        print(f"  {name}: no diff attribution "
              f"(diff JSON missing expected field: {e})")
        return False
    return True


def attribute_regressions(regressed_keys, diff_cfg):
    """Attach --diff attributions to every regressed cell; count attached."""
    print(f"diff attribution (top {diff_cfg['top']}, "
          f"{diff_cfg['traces_old']} -> {diff_cfg['traces_new']}):")
    return sum(1 for key in regressed_keys
               if attribute_regression(key, diff_cfg))


def main(argv):
    args = argv[1:]
    threshold = 5.0
    only_cell = None
    if "--check" in args:
        args.remove("--check")
        if len(args) != 1:
            print(__doc__.strip(), file=sys.stderr)
            return EXIT_USAGE
        try:
            doc = load(args[0])
        except SchemaError as e:
            print(f"FAIL: {e}", file=sys.stderr)
            return EXIT_BAD_INPUT
        print(f"OK   {args[0]}: {len(doc['cells'])} cells, "
              f"schema v{BENCH_SCHEMA_VERSION}")
        return EXIT_OK
    if "--threshold" in args:
        i = args.index("--threshold")
        try:
            threshold = float(args[i + 1])
        except (IndexError, ValueError):
            print(__doc__.strip(), file=sys.stderr)
            return EXIT_USAGE
        del args[i:i + 2]
    if "--cell" in args:
        i = args.index("--cell")
        if i + 1 >= len(args):
            print(__doc__.strip(), file=sys.stderr)
            return EXIT_USAGE
        only_cell = parse_cell_selector(args[i + 1])
        if only_cell is None:
            print(f"bench_compare: bad --cell {args[i + 1]!r} "
                  "(want BENCHMARK/SCHEME/NPROCS, e.g. TreeAdd/local/8)",
                  file=sys.stderr)
            return EXIT_USAGE
        del args[i:i + 2]
    diff_opts = {}
    for flag, dest in (("--traces-old", "traces_old"),
                       ("--traces-new", "traces_new"),
                       ("--analyze", "analyze"), ("--diff-top", "top")):
        if flag in args:
            i = args.index(flag)
            if i + 1 >= len(args):
                print(__doc__.strip(), file=sys.stderr)
                return EXIT_USAGE
            diff_opts[dest] = args[i + 1]
            del args[i:i + 2]
    diff_cfg = None
    if diff_opts:
        required = {"traces_old", "traces_new", "analyze"}
        missing = sorted(required - set(diff_opts))
        if missing:
            print("bench_compare: --traces-old, --traces-new and --analyze "
                  f"must be given together (missing {missing})",
                  file=sys.stderr)
            return EXIT_USAGE
        try:
            diff_opts["top"] = int(diff_opts.get("top", "5"))
        except ValueError:
            print(f"bench_compare: bad --diff-top {diff_opts['top']!r}",
                  file=sys.stderr)
            return EXIT_USAGE
        if diff_opts["top"] < 1:
            print("bench_compare: --diff-top must be >= 1", file=sys.stderr)
            return EXIT_USAGE
        diff_cfg = diff_opts
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return EXIT_USAGE
    try:
        old_doc = load(args[0])
        new_doc = load(args[1])
    except SchemaError as e:
        print(f"FAIL: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if old_doc["mode"] != new_doc["mode"]:
        print(f"FAIL: comparing a {old_doc['mode']!r}-size run against a "
              f"{new_doc['mode']!r}-size run is meaningless", file=sys.stderr)
        return EXIT_COMPARE_FAILED
    old_keys = {cell_key(c) for c in old_doc["cells"]}
    new_keys = {cell_key(c) for c in new_doc["cells"]}
    if only_cell is not None and only_cell not in old_keys | new_keys:
        name = f"{only_cell[0]}/{only_cell[1]}/p={only_cell[2]}"
        print(f"FAIL: cell {name} is absent from both files",
              file=sys.stderr)
        return EXIT_NO_SUCH_CELL
    if not old_keys & new_keys:
        print("FAIL: the two files share no cells — nothing to compare",
              file=sys.stderr)
        return EXIT_NO_SUCH_CELL
    ok, regressed_keys = compare(old_doc, new_doc, threshold, only_cell)
    if ok:
        return EXIT_OK
    if diff_cfg is not None and regressed_keys:
        attached = attribute_regressions(regressed_keys, diff_cfg)
        if attached > 0:
            return EXIT_REGRESSION_ATTRIBUTED
    return EXIT_COMPARE_FAILED


if __name__ == "__main__":
    sys.exit(main(sys.argv))
