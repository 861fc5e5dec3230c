#include "olden/analyze/diff.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "olden/analyze/classify.hpp"
#include "olden/analyze/report.hpp"
#include "olden/support/io.hpp"

namespace olden::analyze {

namespace {

using trace::CycleBucket;

std::uint64_t magnitude(std::int64_t v) {
  return v < 0 ? static_cast<std::uint64_t>(-v) : static_cast<std::uint64_t>(v);
}

DiffSide side_of(const DiffProfile& p) {
  DiffSide s;
  s.label = p.label;
  s.nprocs = p.nprocs;
  s.makespan = p.makespan;
  s.events = p.events;
  s.truncated = p.truncated;
  return s;
}

/// Merge one partition's maps into rows, returning the full-partition
/// delta sum; rows past top_n are rolled into *other. Ranking is by
/// |delta| desc, then combined weight desc, then key asc — a total order,
/// so the report is deterministic.
template <class Key, class Out, class Fill>
std::int64_t merge_partition(const std::map<Key, std::uint64_t>& a,
                             const std::map<Key, std::uint64_t>& b,
                             std::size_t top_n, std::vector<Out>* rows,
                             DiffRow* other, Fill&& fill) {
  std::map<Key, DiffRow> merged;
  for (const auto& [k, v] : a) merged[k].a = v;
  for (const auto& [k, v] : b) merged[k].b = v;
  std::vector<std::pair<Key, DiffRow>> all;
  all.reserve(merged.size());
  std::int64_t sum = 0;
  for (auto& [k, row] : merged) {
    row.delta = static_cast<std::int64_t>(row.b) -
                static_cast<std::int64_t>(row.a);
    sum += row.delta;
    all.emplace_back(k, row);
  }
  std::sort(all.begin(), all.end(), [](const auto& x, const auto& y) {
    const std::uint64_t mx = magnitude(x.second.delta);
    const std::uint64_t my = magnitude(y.second.delta);
    if (mx != my) return mx > my;
    if (x.second.a + x.second.b != y.second.a + y.second.b) {
      return x.second.a + x.second.b > y.second.a + y.second.b;
    }
    return x.first < y.first;
  });
  *other = DiffRow{};
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i < top_n) {
      rows->push_back(fill(all[i].first, all[i].second));
    } else {
      other->a += all[i].second.a;
      other->b += all[i].second.b;
      other->delta += all[i].second.delta;
    }
  }
  return sum;
}

void append_row(std::string& out, const DiffRow& row, bool comma) {
  append_kv(out, "a", row.a);
  append_kv(out, "b", row.b);
  append_kv_i64(out, "delta", row.delta, /*comma=*/false);
  out += comma ? "}," : "}";
}

/// `"key":N,` or `"key":null,` for the kNoSite / kNoPage sentinels.
void append_kv_or_null(std::string& out, const char* key, std::uint64_t v,
                       std::uint64_t sentinel) {
  if (v == sentinel) {
    out += "\"";
    out += key;
    out += "\":null,";
  } else {
    append_kv(out, key, v);
  }
}

}  // namespace

bool diff_runs(const DiffProfile& a, const DiffProfile& b, std::size_t top_n,
               DiffReport* out, std::string* err) {
  *out = DiffReport{};
  out->a = side_of(a);
  out->b = side_of(b);
  out->makespan_delta = static_cast<std::int64_t>(b.makespan) -
                        static_cast<std::int64_t>(a.makespan);
  out->makespan_delta_percent =
      a.makespan == 0 ? 0.0
                      : 100.0 * static_cast<double>(out->makespan_delta) /
                            static_cast<double>(a.makespan);

  for (std::size_t i = 0; i < trace::kNumBuckets; ++i) {
    DiffRow& row = out->buckets[i];
    row.a = a.buckets[i];
    row.b = b.buckets[i];
    row.delta =
        static_cast<std::int64_t>(row.b) - static_cast<std::int64_t>(row.a);
    out->bucket_delta_sum += row.delta;
  }
  out->site_delta_sum = merge_partition(
      a.site_cycles, b.site_cycles, top_n, &out->sites, &out->sites_other,
      [](SiteId site, const DiffRow& row) { return SiteDiff{site, row}; });
  out->page_delta_sum = merge_partition(
      a.page_cycles, b.page_cycles, top_n, &out->pages, &out->pages_other,
      [](std::uint64_t page, const DiffRow& row) {
        return PageDiff{page, row};
      });
  out->edge_delta_sum = merge_partition(
      a.edge_cycles, b.edge_cycles, top_n, &out->edges, &out->edges_other,
      [](const EdgeKey& key, const DiffRow& row) {
        return EdgeDiff{key, row};
      });

  out->chains_a = a.chains;
  out->chains_b = b.chains;
  for (std::size_t i = 0; i < out->retries_by_class.size(); ++i) {
    DiffRow& row = out->retries_by_class[i];
    row.a = a.retries_by_class[i];
    row.b = b.retries_by_class[i];
    row.delta =
        static_cast<std::int64_t>(row.b) - static_cast<std::int64_t>(row.a);
  }
  for (const auto& [sig, ca] : a.chain_counts) {
    const auto it = b.chain_counts.find(sig);
    if (it != b.chain_counts.end()) {
      out->chains_aligned += ca < it->second ? ca : it->second;
    }
  }

  // The exactness invariant: every partition of the two critical paths
  // must balance to the makespan delta. A mismatch means a profile bug
  // (an edge dropped or double-counted), so refuse to report.
  const struct {
    const char* name;
    std::int64_t sum;
  } checks[] = {{"bucket", out->bucket_delta_sum},
                {"site", out->site_delta_sum},
                {"page", out->page_delta_sum},
                {"edge", out->edge_delta_sum}};
  for (const auto& c : checks) {
    if (c.sum != out->makespan_delta) {
      if (err != nullptr) {
        *err = "diff invariant violated: " + std::string(c.name) +
               " deltas sum to " + std::to_string(c.sum) +
               ", makespan delta is " + std::to_string(out->makespan_delta) +
               " ('" + a.label + "' vs '" + b.label + "')";
      }
      return false;
    }
  }
  return true;
}

std::string human_diff(const DiffReport& rep) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof buf, "diff: %s -> %s\n", rep.a.label.c_str(),
                rep.b.label.c_str());
  out += buf;
  for (const auto* side : {&rep.a, &rep.b}) {
    std::snprintf(buf, sizeof buf,
                  "  %s: %s (%u procs, makespan %" PRIu64 " cycles, %" PRIu64
                  " events%s)\n",
                  side == &rep.a ? "A" : "B",
                  side->path.empty() ? "<memory>" : side->path.c_str(),
                  side->nprocs, side->makespan, side->events,
                  side->truncated ? ", TRUNCATED" : "");
    out += buf;
  }
  std::snprintf(buf, sizeof buf,
                "  makespan delta: %+" PRId64 " cycles (%+.2f%%)\n",
                rep.makespan_delta, rep.makespan_delta_percent);
  out += buf;

  std::snprintf(buf, sizeof buf,
                "  critical-path buckets (deltas sum to %+" PRId64 "):\n",
                rep.makespan_delta);
  out += buf;
  for (std::size_t i = 0; i < trace::kNumBuckets; ++i) {
    const DiffRow& row = rep.buckets[i];
    std::snprintf(buf, sizeof buf,
                  "    %-12s %12" PRIu64 " -> %12" PRIu64 "  %+12" PRId64 "\n",
                  trace::to_string(static_cast<CycleBucket>(i)), row.a, row.b,
                  row.delta);
    out += buf;
  }

  out += "  top sites by |delta|:\n";
  if (rep.sites.empty()) out += "    (no attributed cycles)\n";
  for (const SiteDiff& s : rep.sites) {
    char name[32];
    if (s.site == trace::kNoSite) {
      std::snprintf(name, sizeof name, "(no site)");
    } else {
      std::snprintf(name, sizeof name, "site %u", s.site);
    }
    std::snprintf(buf, sizeof buf,
                  "    %-12s %12" PRIu64 " -> %12" PRIu64 "  %+12" PRId64 "\n",
                  name, s.row.a, s.row.b, s.row.delta);
    out += buf;
  }
  if (rep.sites_other.a + rep.sites_other.b > 0 || rep.sites_other.delta != 0) {
    std::snprintf(buf, sizeof buf,
                  "    %-12s %12" PRIu64 " -> %12" PRIu64 "  %+12" PRId64 "\n",
                  "(other)", rep.sites_other.a, rep.sites_other.b,
                  rep.sites_other.delta);
    out += buf;
  }

  out += "  top pages by |delta|:\n";
  if (rep.pages.empty()) out += "    (no attributed cycles)\n";
  for (const PageDiff& p : rep.pages) {
    char name[32];
    if (p.page == classify::kNoPage) {
      std::snprintf(name, sizeof name, "(unpaged)");
    } else {
      std::snprintf(name, sizeof name, "page %" PRIu64, p.page);
    }
    std::snprintf(buf, sizeof buf,
                  "    %-12s %12" PRIu64 " -> %12" PRIu64 "  %+12" PRId64 "\n",
                  name, p.row.a, p.row.b, p.row.delta);
    out += buf;
  }
  if (rep.pages_other.a + rep.pages_other.b > 0 || rep.pages_other.delta != 0) {
    std::snprintf(buf, sizeof buf,
                  "    %-12s %12" PRIu64 " -> %12" PRIu64 "  %+12" PRId64 "\n",
                  "(other)", rep.pages_other.a, rep.pages_other.b,
                  rep.pages_other.delta);
    out += buf;
  }

  out += "  top responsible edges (aligned by structure):\n";
  if (rep.edges.empty()) out += "    (no attributed cycles)\n";
  for (const EdgeDiff& e : rep.edges) {
    char where[48] = "";
    if (e.key.site != trace::kNoSite) {
      std::snprintf(where, sizeof where, " @ site %u", e.key.site);
    }
    std::snprintf(buf, sizeof buf,
                  "    %+12" PRId64 " %-12s %s -> %s%s  (%" PRIu64
                  " -> %" PRIu64 ")\n",
                  e.row.delta,
                  trace::to_string(static_cast<CycleBucket>(e.key.bucket)),
                  node_kind_name(e.key.src_kind),
                  node_kind_name(e.key.dst_kind), where, e.row.a, e.row.b);
    out += buf;
  }
  if (rep.edges_other.a + rep.edges_other.b > 0 || rep.edges_other.delta != 0) {
    std::snprintf(buf, sizeof buf,
                  "    %+12" PRId64 " %-12s %s  (%" PRIu64 " -> %" PRIu64
                  ")\n",
                  rep.edges_other.delta, "", "(other edges)",
                  rep.edges_other.a, rep.edges_other.b);
    out += buf;
  }

  bool any_retries = false;
  for (const DiffRow& row : rep.retries_by_class) {
    any_retries = any_retries || row.a + row.b > 0;
  }
  if (any_retries) {
    out += "  retransmits by message class:\n";
    for (std::size_t i = 0; i < rep.retries_by_class.size(); ++i) {
      const DiffRow& row = rep.retries_by_class[i];
      if (row.a + row.b == 0) continue;
      std::snprintf(buf, sizeof buf,
                    "    %-14s %12" PRIu64 " -> %12" PRIu64 "  %+12" PRId64
                    "\n",
                    FaultSummary::class_label(i), row.a, row.b, row.delta);
      out += buf;
    }
  }

  std::snprintf(buf, sizeof buf,
                "  chains: %" PRIu64 " in A, %" PRIu64 " in B, %" PRIu64
                " aligned by spawn signature\n",
                rep.chains_a, rep.chains_b, rep.chains_aligned);
  out += buf;
  std::snprintf(buf, sizeof buf,
                "  invariant: bucket/site/page/edge deltas each sum to "
                "%+" PRId64 " (exact)\n",
                rep.makespan_delta);
  out += buf;
  return out;
}

namespace {

void append_side(std::string& out, const char* key, const DiffSide& side) {
  out += "\"";
  out += key;
  out += "\":{\"path\":\"";
  append_escaped(out, side.path);
  out += "\",\"label\":\"";
  append_escaped(out, side.label);
  out += "\",";
  append_kv(out, "nprocs", side.nprocs);
  append_kv(out, "makespan_cycles", side.makespan);
  append_kv(out, "events", side.events);
  out += "\"truncated\":";
  out += side.truncated ? "true" : "false";
  out += "},";
}

}  // namespace

std::string json_diff(const std::vector<DiffReport>& reps) {
  std::string out;
  out.reserve(1 << 14);
  out += "{\"diff_schema_version\":";
  out += std::to_string(kDiffSchemaVersion);
  out += ",\"generator\":\"olden-analyze\",";
  append_kv(out, "trace_version",
            static_cast<std::uint64_t>(trace::kBinaryTraceVersion));
  out += "\"diffs\":[";
  for (std::size_t r = 0; r < reps.size(); ++r) {
    const DiffReport& rep = reps[r];
    if (r != 0) out += ",";
    out += "\n{";
    append_side(out, "a", rep.a);
    append_side(out, "b", rep.b);
    append_kv_i64(out, "makespan_delta_cycles", rep.makespan_delta);
    char buf[64];
    std::snprintf(buf, sizeof buf, "\"makespan_delta_percent\":%.4f,",
                  rep.makespan_delta_percent);
    out += buf;
    out += "\"exact\":true,";

    out += "\"buckets\":[";
    for (std::size_t i = 0; i < trace::kNumBuckets; ++i) {
      if (i != 0) out += ",";
      out += "{\"bucket\":\"";
      out += trace::to_string(static_cast<CycleBucket>(i));
      out += "\",";
      append_row(out, rep.buckets[i], /*comma=*/false);
    }
    out += "],";

    out += "\"sites\":{";
    append_kv_i64(out, "delta_sum", rep.site_delta_sum);
    out += "\"top\":[";
    for (std::size_t i = 0; i < rep.sites.size(); ++i) {
      if (i != 0) out += ",";
      out += "{";
      append_kv_or_null(out, "site", rep.sites[i].site, trace::kNoSite);
      append_row(out, rep.sites[i].row, /*comma=*/false);
    }
    out += "],\"other\":{";
    append_row(out, rep.sites_other, /*comma=*/false);
    out += "},";

    out += "\"pages\":{";
    append_kv_i64(out, "delta_sum", rep.page_delta_sum);
    out += "\"top\":[";
    for (std::size_t i = 0; i < rep.pages.size(); ++i) {
      if (i != 0) out += ",";
      out += "{";
      append_kv_or_null(out, "page", rep.pages[i].page, classify::kNoPage);
      append_row(out, rep.pages[i].row, /*comma=*/false);
    }
    out += "],\"other\":{";
    append_row(out, rep.pages_other, /*comma=*/false);
    out += "},";

    out += "\"edges\":{";
    append_kv_i64(out, "delta_sum", rep.edge_delta_sum);
    out += "\"top\":[";
    for (std::size_t i = 0; i < rep.edges.size(); ++i) {
      const EdgeDiff& e = rep.edges[i];
      if (i != 0) out += ",";
      out += "{\"src\":\"";
      out += node_kind_name(e.key.src_kind);
      out += "\",\"dst\":\"";
      out += node_kind_name(e.key.dst_kind);
      out += "\",\"bucket\":\"";
      out += trace::to_string(static_cast<CycleBucket>(e.key.bucket));
      out += "\",";
      append_kv_or_null(out, "site", e.key.site, trace::kNoSite);
      append_row(out, e.row, /*comma=*/false);
    }
    out += "],\"other\":{";
    append_row(out, rep.edges_other, /*comma=*/false);
    out += "},";

    out += "\"retries_by_class\":{";
    for (std::size_t i = 0; i < rep.retries_by_class.size(); ++i) {
      out += "\"";
      out += FaultSummary::class_label(i);
      out += "\":{";
      append_row(out, rep.retries_by_class[i],
                 /*comma=*/i + 1 < rep.retries_by_class.size());
    }
    out += "},";

    out += "\"chains\":{";
    append_kv(out, "a", rep.chains_a);
    append_kv(out, "b", rep.chains_b);
    append_kv(out, "aligned", rep.chains_aligned, /*comma=*/false);
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace olden::analyze
