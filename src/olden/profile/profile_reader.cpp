#include "olden/profile/profile_reader.hpp"

#include <map>
#include <memory>

#include "olden/profile/profile.hpp"
#include "olden/support/io.hpp"

namespace olden::profile {

namespace {

bool set_err(std::string* err, const std::string& msg) {
  if (err != nullptr) *err = msg;
  return false;
}

// --- a restricted JSON value + recursive-descent parser ---------------------
// Supports exactly what the profile exporter emits: objects, arrays,
// strings with the exporter's escape set, unsigned integers, true/false.
// (No floats, no null, no \uXXXX beyond control characters — the
// exporter never produces them, and rejecting the rest keeps the parser
// small and the error surface explicit.) Nesting is bounded too: an
// emitted document nests 7 deep, and unbounded recursion on a hostile
// one would overflow the host stack.

struct Value {
  enum class Kind { kObject, kArray, kString, kUint, kBool } kind;
  std::map<std::string, Value> object;
  std::vector<Value> array;
  std::string string;
  std::uint64_t uint = 0;
  bool boolean = false;
};

class Parser {
 public:
  Parser(const std::string& text, std::string* err)
      : text_(text), err_(err) {}

  bool parse(Value* out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing bytes after document");
    return true;
  }

 private:
  bool fail(const std::string& msg) {
    return set_err(err_, "profile JSON byte " + std::to_string(pos_) + ": " +
                             msg);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool expect(char ch) {
    if (pos_ >= text_.size() || text_[pos_] != ch) {
      return fail(std::string("expected '") + ch + "'");
    }
    ++pos_;
    return true;
  }

  bool parse_value(Value* out) {
    if (pos_ >= text_.size()) return fail("unexpected end of document");
    const char ch = text_[pos_];
    if (ch == '{' || ch == '[') {
      if (depth_ == kMaxDepth) {
        return fail("nesting deeper than " + std::to_string(kMaxDepth) +
                    " levels");
      }
      ++depth_;
      const bool ok = ch == '{' ? parse_object(out) : parse_array(out);
      --depth_;
      return ok;
    }
    if (ch == '"') return parse_string(out);
    if (ch >= '0' && ch <= '9') return parse_uint(out);
    if (ch == 't' || ch == 'f') return parse_bool(out);
    return fail(std::string("unexpected character '") + ch + "'");
  }

  bool parse_object(Value* out) {
    out->kind = Value::Kind::kObject;
    if (!expect('{')) return false;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      Value key;
      if (!parse_string(&key)) return false;
      skip_ws();
      if (!expect(':')) return false;
      skip_ws();
      Value val;
      if (!parse_value(&val)) return false;
      out->object.emplace(std::move(key.string), std::move(val));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return expect('}');
    }
  }

  bool parse_array(Value* out) {
    out->kind = Value::Kind::kArray;
    if (!expect('[')) return false;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      Value val;
      if (!parse_value(&val)) return false;
      out->array.push_back(std::move(val));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return expect(']');
    }
  }

  bool parse_string(Value* out) {
    out->kind = Value::Kind::kString;
    if (!expect('"')) return false;
    while (pos_ < text_.size()) {
      const char ch = text_[pos_++];
      if (ch == '"') return true;
      if (ch == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out->string += '"'; break;
          case '\\': out->string += '\\'; break;
          case 'n': out->string += '\n'; break;
          case 't': out->string += '\t'; break;
          case 'r': out->string += '\r'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
              else
                return fail("bad \\u escape digit");
            }
            if (code > 0x7f) return fail("non-ASCII \\u escape unsupported");
            out->string += static_cast<char>(code);
            break;
          }
          default:
            return fail(std::string("unsupported escape '\\") + esc + "'");
        }
      } else {
        out->string += ch;
      }
    }
    return fail("unterminated string");
  }

  bool parse_uint(Value* out) {
    out->kind = Value::Kind::kUint;
    std::uint64_t v = 0;
    std::size_t digits = 0;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      const std::uint64_t d = static_cast<std::uint64_t>(text_[pos_] - '0');
      if (v > (~std::uint64_t{0} - d) / 10) return fail("integer overflow");
      v = v * 10 + d;
      ++pos_;
      ++digits;
    }
    if (digits == 0) return fail("expected digits");
    if (pos_ < text_.size() &&
        (text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E')) {
      return fail("floating-point numbers unsupported");
    }
    out->uint = v;
    return true;
  }

  bool parse_bool(Value* out) {
    out->kind = Value::Kind::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      out->boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out->boolean = false;
      pos_ += 5;
      return true;
    }
    return fail("expected true/false");
  }

  static constexpr int kMaxDepth = 32;

  const std::string& text_;
  std::string* err_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< objects and arrays open at pos_
};

// --- mapping the parsed tree onto the document structs ----------------------

bool get_field(const Value& obj, const char* key, const Value** out,
               std::string* err, const char* where) {
  const auto it = obj.object.find(key);
  if (it == obj.object.end()) {
    return set_err(err, std::string(where) + ": missing field \"" + key +
                            "\"");
  }
  *out = &it->second;
  return true;
}

bool get_uint(const Value& obj, const char* key, std::uint64_t* out,
              std::string* err, const char* where) {
  const Value* v = nullptr;
  if (!get_field(obj, key, &v, err, where)) return false;
  if (v->kind != Value::Kind::kUint) {
    return set_err(err, std::string(where) + ": field \"" + key +
                            "\" is not an unsigned integer");
  }
  *out = v->uint;
  return true;
}

bool get_string(const Value& obj, const char* key, std::string* out,
                std::string* err, const char* where) {
  const Value* v = nullptr;
  if (!get_field(obj, key, &v, err, where)) return false;
  if (v->kind != Value::Kind::kString) {
    return set_err(err,
                   std::string(where) + ": field \"" + key + "\" is not a "
                                                             "string");
  }
  *out = v->string;
  return true;
}

/// Optional string field (site_uid is omitted for unattributed runs).
void get_string_opt(const Value& obj, const char* key, std::string* out) {
  const auto it = obj.object.find(key);
  if (it != obj.object.end() && it->second.kind == Value::Kind::kString) {
    *out = it->second.string;
  }
}

bool get_array(const Value& obj, const char* key, const Value** out,
               std::string* err, const char* where) {
  if (!get_field(obj, key, out, err, where)) return false;
  if ((*out)->kind != Value::Kind::kArray) {
    return set_err(err, std::string(where) + ": field \"" + key +
                            "\" is not an array");
  }
  return true;
}

bool map_site(const Value& v, SiteRow* out, std::string* err) {
  if (v.kind != Value::Kind::kObject) {
    return set_err(err, "site row is not an object");
  }
  std::uint64_t site = 0;
  if (!get_uint(v, "site", &site, err, "site row") ||
      !get_uint(v, "local_reads", &out->local_reads, err, "site row") ||
      !get_uint(v, "local_writes", &out->local_writes, err, "site row") ||
      !get_uint(v, "cache_hits", &out->cache_hits, err, "site row") ||
      !get_uint(v, "cache_misses", &out->cache_misses, err, "site row") ||
      !get_uint(v, "write_throughs", &out->write_throughs, err, "site row") ||
      !get_uint(v, "migrations", &out->migrations, err, "site row") ||
      !get_uint(v, "accesses", &out->accesses, err, "site row") ||
      !get_string(v, "mechanism", &out->mechanism, err, "site row")) {
    return false;
  }
  out->site = static_cast<SiteId>(site);
  get_string_opt(v, "site_uid", &out->site_uid);
  if (out->mechanism != "migrate" && out->mechanism != "cache") {
    return set_err(err, "site row: bad mechanism \"" + out->mechanism + "\"");
  }
  const Value* tl = nullptr;
  if (!get_array(v, "timeline", &tl, err, "site row")) return false;
  for (const Value& pair : tl->array) {
    if (pair.kind != Value::Kind::kArray || pair.array.size() != 2 ||
        pair.array[0].kind != Value::Kind::kUint ||
        pair.array[1].kind != Value::Kind::kUint) {
      return set_err(err, "site row: timeline entries must be "
                          "[interval, accesses] integer pairs");
    }
    out->timeline.emplace_back(pair.array[0].uint, pair.array[1].uint);
  }
  return true;
}

bool map_page(const Value& v, PageRow* out, std::string* err) {
  if (v.kind != Value::Kind::kObject) {
    return set_err(err, "page row is not an object");
  }
  return get_uint(v, "page", &out->page, err, "page row") &&
         get_uint(v, "local_accesses", &out->local_accesses, err,
                  "page row") &&
         get_uint(v, "cache_hits", &out->cache_hits, err, "page row") &&
         get_uint(v, "cache_misses", &out->cache_misses, err, "page row") &&
         get_uint(v, "write_throughs", &out->write_throughs, err,
                  "page row") &&
         get_uint(v, "line_fills", &out->line_fills, err, "page row") &&
         get_uint(v, "lines_invalidated", &out->lines_invalidated, err,
                  "page row") &&
         get_uint(v, "timestamp_checks", &out->timestamp_checks, err,
                  "page row");
}

bool map_proc(const Value& v, ProcRow* out, std::string* err) {
  if (v.kind != Value::Kind::kObject) {
    return set_err(err, "proc row is not an object");
  }
  return get_uint(v, "proc", &out->proc, err, "proc row") &&
         get_uint(v, "migrations_out", &out->migrations_out, err,
                  "proc row") &&
         get_uint(v, "migrations_in", &out->migrations_in, err, "proc row") &&
         get_uint(v, "future_steals", &out->future_steals, err, "proc row");
}

bool map_interval(const Value& v, IntervalRow* out, std::string* err) {
  if (v.kind != Value::Kind::kObject) {
    return set_err(err, "interval row is not an object");
  }
  if (!get_uint(v, "interval", &out->interval, err, "interval row") ||
      !get_uint(v, "start_cycle", &out->start_cycle, err, "interval row") ||
      !get_uint(v, "accesses", &out->accesses, err, "interval row") ||
      !get_uint(v, "migrations", &out->migrations, err, "interval row") ||
      !get_uint(v, "future_steals", &out->future_steals, err,
                "interval row")) {
    return false;
  }
  const Value* cyc = nullptr;
  if (!get_field(v, "cycles", &cyc, err, "interval row")) return false;
  if (cyc->kind != Value::Kind::kObject) {
    return set_err(err, "interval row: \"cycles\" is not an object");
  }
  for (std::size_t b = 0; b < trace::kNumBuckets; ++b) {
    if (!get_uint(*cyc, to_string(static_cast<trace::CycleBucket>(b)),
                  &out->cycles[b], err, "interval cycles")) {
      return false;
    }
  }
  return true;
}

bool map_run(const Value& v, ProfileRun* out, std::string* err) {
  if (v.kind != Value::Kind::kObject) {
    return set_err(err, "run entry is not an object");
  }
  std::uint64_t nprocs = 0;
  if (!get_string(v, "label", &out->label, err, "run") ||
      !get_string(v, "benchmark", &out->benchmark, err, "run") ||
      !get_string(v, "scheme", &out->scheme, err, "run") ||
      !get_uint(v, "nprocs", &nprocs, err, "run") ||
      !get_uint(v, "makespan_cycles", &out->makespan_cycles, err, "run") ||
      !get_uint(v, "interval_cycles", &out->interval_cycles, err, "run")) {
    return false;
  }
  out->nprocs = static_cast<std::uint32_t>(nprocs);
  const Value* base = nullptr;
  if (!get_field(v, "sequential_baseline", &base, err, "run")) return false;
  if (base->kind != Value::Kind::kBool) {
    return set_err(err, "run: \"sequential_baseline\" is not a bool");
  }
  out->sequential_baseline = base->boolean;
  if (out->interval_cycles == 0) {
    return set_err(err, "run " + out->label + ": interval_cycles must be > 0");
  }
  const Value* totals = nullptr;
  if (!get_field(v, "totals", &totals, err, "run")) return false;
  if (totals->kind != Value::Kind::kObject) {
    return set_err(err, "run: \"totals\" is not an object");
  }
  if (!get_uint(*totals, "accesses", &out->total_accesses, err, "totals") ||
      !get_uint(*totals, "migrations", &out->total_migrations, err,
                "totals") ||
      !get_uint(*totals, "future_steals", &out->total_future_steals, err,
                "totals")) {
    return false;
  }
  const Value* arr = nullptr;
  if (!get_array(v, "sites", &arr, err, "run")) return false;
  for (const Value& e : arr->array) {
    SiteRow row;
    if (!map_site(e, &row, err)) return false;
    out->sites.push_back(std::move(row));
  }
  if (!get_array(v, "pages", &arr, err, "run")) return false;
  for (const Value& e : arr->array) {
    PageRow row;
    if (!map_page(e, &row, err)) return false;
    out->pages.push_back(row);
  }
  if (!get_array(v, "procs", &arr, err, "run")) return false;
  for (const Value& e : arr->array) {
    ProcRow row;
    if (!map_proc(e, &row, err)) return false;
    out->procs.push_back(row);
  }
  if (!get_array(v, "intervals", &arr, err, "run")) return false;
  for (const Value& e : arr->array) {
    IntervalRow row;
    if (!map_interval(e, &row, err)) return false;
    out->intervals.push_back(row);
  }
  return true;
}

}  // namespace

bool parse_profile_json(const std::string& text, ProfileDoc* doc,
                        std::string* err) {
  // The tree is heap-allocated child-by-child; the parser's depth bound
  // keeps the recursion that builds and destroys it shallow.
  auto root = std::make_unique<Value>();
  Parser parser(text, err);
  if (!parser.parse(root.get())) return false;
  if (root->kind != Value::Kind::kObject) {
    return set_err(err, "profile document is not a JSON object");
  }
  std::uint64_t version = 0;
  if (!get_uint(*root, "profile_schema_version", &version, err, "document")) {
    return false;
  }
  doc->schema_version = static_cast<int>(version);
  if (version != static_cast<std::uint64_t>(kProfileSchemaVersion)) {
    return set_err(err, "unsupported profile_schema_version " +
                            std::to_string(version) + " (this reader speaks " +
                            std::to_string(kProfileSchemaVersion) + ")");
  }
  std::string generator;
  if (!get_string(*root, "generator", &generator, err, "document")) {
    return false;
  }
  if (generator != "olden-profile") {
    return set_err(err, "document generator \"" + generator +
                            "\" is not olden-profile");
  }
  const Value* runs = nullptr;
  if (!get_array(*root, "runs", &runs, err, "document")) return false;
  for (const Value& e : runs->array) {
    ProfileRun run;
    if (!map_run(e, &run, err)) return false;
    doc->runs.push_back(std::move(run));
  }
  return true;
}

bool load_profile_file(const std::string& path, ProfileDoc* doc,
                       std::string* err) {
  std::string text;
  if (!read_file(path, &text, err)) return false;
  std::string perr;
  if (!parse_profile_json(text, doc, &perr)) {
    return set_err(err, path + ": " + perr);
  }
  return true;
}

}  // namespace olden::profile
