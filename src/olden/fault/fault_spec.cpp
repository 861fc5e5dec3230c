#include "olden/fault/fault_spec.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <vector>

namespace olden::fault {
namespace {

bool fail(std::string* err, std::string msg) {
  if (err != nullptr) *err = std::move(msg);
  return false;
}

/// Split `text` on `sep`, keeping empty fields (so "drop=" is detectably
/// malformed rather than silently ignored).
std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

bool parse_prob(std::string_view field, std::string_view key, double* out,
                std::string* err) {
  if (field.empty()) {
    return fail(err, "faults: empty probability for '" + std::string(key) + "'");
  }
  const std::string buf(field);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  // NaN fails every comparison, so the range check alone would let it in.
  if (errno != 0 || end != buf.c_str() + buf.size() || !std::isfinite(v) ||
      v < 0.0 || v > 1.0) {
    return fail(err, "faults: '" + std::string(key) + "' needs a probability in [0,1], got '" +
                         buf + "'");
  }
  *out = v;
  return true;
}

bool parse_count(std::string_view field, std::string_view key,
                 std::uint64_t* out, std::string* err) {
  if (field.empty() || field.size() > 18) {
    return fail(err, "faults: '" + std::string(key) +
                         "' needs a positive integer, got '" +
                         std::string(field) + "'");
  }
  std::uint64_t v = 0;
  for (char c : field) {
    if (c < '0' || c > '9') {
      return fail(err, "faults: '" + std::string(key) +
                           "' needs a positive integer, got '" +
                           std::string(field) + "'");
    }
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

/// A cycle count (timeout, delay or hiccup length). Capped at 2^32 so that
/// retransmit schedules, whose backoff grows to 32 timeouts over up to
/// 1000 retries, stay far inside the 64-bit virtual clock.
bool parse_cycles(std::string_view field, std::string_view key,
                  std::uint64_t* out, std::string* err) {
  constexpr std::uint64_t kMaxCycles = std::uint64_t{1} << 32;
  if (!parse_count(field, key, out, err)) return false;
  if (*out > kMaxCycles) {
    return fail(err, "faults: '" + std::string(key) + "' must be at most " +
                         std::to_string(kMaxCycles) + " cycles, got '" +
                         std::string(field) + "'");
  }
  return true;
}

}  // namespace

bool parse_fault_spec(std::string_view text, FaultSpec* out,
                      std::string* err) {
  FaultSpec spec;
  if (text.empty() || text == "none" || text == "off") {
    *out = spec;
    return true;
  }
  spec.enabled = true;
  std::vector<std::string> seen_keys;
  for (std::string_view item : split(text, ',')) {
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return fail(err, "faults: expected key=value, got '" + std::string(item) + "'");
    }
    const std::string_view key = item.substr(0, eq);
    const std::string_view val = item.substr(eq + 1);
    // Each key may appear once: silently letting the last occurrence win
    // hides typos in long specs.
    for (const std::string& prev : seen_keys) {
      if (prev == key) {
        return fail(err, "faults: duplicate key '" + std::string(key) + "'");
      }
    }
    seen_keys.emplace_back(key);
    const std::vector<std::string_view> parts = split(val, ':');
    if (key == "drop") {
      if (parts.size() != 1) return fail(err, "faults: drop takes one field (drop=P)");
      if (!parse_prob(parts[0], key, &spec.drop, err)) return false;
    } else if (key == "dup") {
      if (parts.size() != 1) return fail(err, "faults: dup takes one field (dup=P)");
      if (!parse_prob(parts[0], key, &spec.dup, err)) return false;
    } else if (key == "delay") {
      if (parts.size() != 2) {
        return fail(err, "faults: delay takes two fields (delay=P:CYCLES)");
      }
      if (!parse_prob(parts[0], key, &spec.delay, err)) return false;
      if (!parse_cycles(parts[1], "delay cycles", &spec.delay_cycles, err)) {
        return false;
      }
      if (spec.delay > 0.0 && spec.delay_cycles == 0) {
        return fail(err, "faults: delay cycles must be >= 1");
      }
    } else if (key == "hiccup") {
      if (parts.size() != 2) {
        return fail(err, "faults: hiccup takes two fields (hiccup=P:CYCLES)");
      }
      if (!parse_prob(parts[0], key, &spec.hiccup, err)) return false;
      if (!parse_cycles(parts[1], "hiccup cycles", &spec.hiccup_cycles, err)) {
        return false;
      }
      if (spec.hiccup > 0.0 && spec.hiccup_cycles == 0) {
        return fail(err, "faults: hiccup cycles must be >= 1");
      }
    } else if (key == "timeout") {
      if (parts.size() != 1 ||
          !parse_cycles(parts[0], key, &spec.ack_timeout, err)) {
        return parts.size() == 1
                   ? false
                   : fail(err, "faults: timeout takes one field (timeout=CYCLES)");
      }
      if (spec.ack_timeout == 0) {
        return fail(err, "faults: timeout must be >= 1 cycle");
      }
    } else if (key == "retries") {
      std::uint64_t n = 0;
      if (parts.size() != 1 || !parse_count(parts[0], key, &n, err)) {
        return parts.size() == 1
                   ? false
                   : fail(err, "faults: retries takes one field (retries=N)");
      }
      if (n == 0 || n > 1000) {
        return fail(err, "faults: retries must be in [1, 1000]");
      }
      spec.max_retries = static_cast<std::uint32_t>(n);
    } else if (key == "classes") {
      std::uint32_t mask = 0;
      for (std::string_view name : parts) {
        bool known = false;
        for (std::size_t c = 0; c < kNumMsgClasses; ++c) {
          if (name == to_string(static_cast<MsgClass>(c))) {
            const std::uint32_t bit = 1u << c;
            if ((mask & bit) != 0) {
              return fail(err, "faults: duplicate class '" + std::string(name) +
                                   "'");
            }
            mask |= bit;
            known = true;
            break;
          }
        }
        if (!known) {
          return fail(err,
                      "faults: unknown class '" + std::string(name) +
                          "' (known: migration return_stub future_resolve "
                          "fill invalidate ts_check)");
        }
      }
      if (mask == 0) {
        return fail(err, "faults: classes needs at least one class name");
      }
      spec.class_mask = mask;
    } else {
      return fail(err,
                  "faults: unknown key '" + std::string(key) +
                      "' (known: drop dup delay hiccup timeout retries "
                      "classes)");
    }
  }
  *out = spec;
  return true;
}

}  // namespace olden::fault
