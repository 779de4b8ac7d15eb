// The ledger's arithmetic: percentiles, medians, rung self times and
// ratios that keep their base. Kept free of lock code so the self-test can
// pin every rule the report relies on.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ledger {

/// A reported percentile needs at least this many samples strictly above
/// its rank; a tail thinner than that is noise, not a percentile.
inline constexpr std::size_t kTailSamples = 10;

/// 1-based nearest rank of quantile `q` over `n` samples: ceil(q * n),
/// clamped to [1, n].
inline std::size_t nearest_rank(std::size_t n, double q) {
  const double exact = q * static_cast<double>(n);
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// True when quantile `q` of `n` samples leaves kTailSamples beyond it.
inline bool percentile_defined(std::size_t n, double q) {
  return n != 0 && n - nearest_rank(n, q) >= kTailSamples;
}

/// Nearest-rank percentile, or nullopt when the tail beyond it is too thin.
template <typename T>
std::optional<T> percentile(std::vector<T> samples, double q) {
  if (!percentile_defined(samples.size(), q)) return std::nullopt;
  const std::size_t idx = nearest_rank(samples.size(), q) - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  return samples[idx];
}

/// Median (mean of the middle pair for an even count); 0 for no values.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Share of a run's rounds allowed to sit on the better side of the value
/// the run reports.
inline constexpr double kBetterQuantile = 0.2;

/// Which of a run's per-round values it reports: the kBetterQuantile
/// quantile on the metric's better side (nearest rank), which with ten
/// rounds is the second best. The host this runs on slows one virtual CPU
/// at a time for seconds on end, for up to half of a run's rounds; this
/// value is what the code reaches when it is not slowed, and it stays put
/// however many of the other rounds are. `v` must not be empty.
inline std::size_t better_index(const std::vector<double>& v,
                                bool lower_is_better) {
  std::vector<std::size_t> order(v.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
  const std::size_t k = nearest_rank(v.size(), kBetterQuantile) - 1;
  return lower_is_better ? order[k] : order[v.size() - 1 - k];
}

inline double better_value(const std::vector<double>& v,
                           bool lower_is_better) {
  return v.empty() ? 0.0 : v[better_index(v, lower_is_better)];
}

/// A ratio with its numerator and denominator, so every report line can
/// say what was divided by what.
struct Ratio {
  double num = 0.0;
  double den = 0.0;
  bool defined() const { return den > 0.0; }
  double value() const { return defined() ? num / den : 0.0; }
};

/// One reported metric. Ratios carry their base; percentiles their sample
/// count (the number of samples the percentile was taken over); a figure
/// taken once per round keeps every round's value.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::optional<Ratio> base;
  std::uint64_t samples = 0;
  std::vector<double> rounds;
};

inline Metric plain(std::string name, std::string unit, double value) {
  return Metric{std::move(name), std::move(unit), value, std::nullopt, 0, {}};
}

inline Metric ratio(std::string name, std::string unit, Ratio r) {
  return Metric{std::move(name), std::move(unit), r.value(), r, 0, {}};
}

inline Metric sampled(std::string name, std::string unit, double value,
                      std::uint64_t samples) {
  return Metric{std::move(name), std::move(unit), value, std::nullopt,
                samples, {}};
}

/// Units that denote a quotient of two counts. A metric in one of them must
/// carry its base.
inline bool is_ratio_unit(const std::string& unit) {
  return unit == "ratio" || unit.rfind("count/", 0) == 0;
}

/// Names of metrics that are quotients but were built without their base.
inline std::vector<std::string> missing_bases(const std::vector<Metric>& ms) {
  std::vector<std::string> out;
  for (const Metric& m : ms) {
    if (is_ratio_unit(m.unit) && !m.base.has_value()) out.push_back(m.name);
  }
  return out;
}

/// A ladder rung: the batched per-passage time of one layer's entry point,
/// and the name of the rung it sits on ("" for a floor).
struct Rung {
  std::string name;
  double ns = 0.0;
  std::string below;
};

/// Self time of each rung: its time minus the time of the rung below. A
/// floor rung's self time is its whole time. A rung whose `below` is not in
/// the ladder has no self time.
inline std::map<std::string, double> self_times(const std::vector<Rung>& rs) {
  std::map<std::string, double> by_name;
  for (const Rung& r : rs) by_name[r.name] = r.ns;
  std::map<std::string, double> out;
  for (const Rung& r : rs) {
    if (r.below.empty()) {
      out[r.name] = r.ns;
    } else if (const auto it = by_name.find(r.below); it != by_name.end()) {
      out[r.name] = r.ns - it->second;
    }
  }
  return out;
}

/// A double in JSON with all its digits; non-finite values become 0 so the
/// document always parses.
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// JSON string literal (the names and units here are plain ASCII).
inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// The short form the result line needs: {"value": v, "unit": u}.
inline std::string value_json(const Metric& m) {
  return "{\"value\": " + json_number(m.value) +
         ", \"unit\": " + json_string(m.unit) + "}";
}

/// The ledger form: value and unit plus the base of a ratio and the sample
/// count of a percentile.
inline std::string full_json(const Metric& m) {
  std::string out = "{\"value\": " + json_number(m.value) +
                    ", \"unit\": " + json_string(m.unit);
  if (m.base.has_value()) {
    out += ", \"num\": " + json_number(m.base->num) +
           ", \"den\": " + json_number(m.base->den);
  }
  if (m.samples != 0) out += ", \"samples\": " + std::to_string(m.samples);
  if (!m.rounds.empty()) {
    out += ", \"rounds\": [";
    for (std::size_t i = 0; i < m.rounds.size(); ++i) {
      out += (i == 0 ? "" : ", ") + json_number(m.rounds[i]);
    }
    out += "]";
  }
  return out + "}";
}

}  // namespace ledger
