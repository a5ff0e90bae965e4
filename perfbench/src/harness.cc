#include "harness.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <utility>

namespace perfbench {

std::uint64_t SplitMix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t purpose) {
  std::uint64_t state = seed ^ (purpose * 0xd1b54a32d192ed03ULL);
  SplitMix64(&state);
  return SplitMix64(&state);
}

std::vector<double> GaussianColumn(std::uint64_t seed, std::size_t rows,
                                   double mean, double sd, double lo,
                                   double hi) {
  std::uint64_t state = seed;
  std::vector<double> values;
  values.reserve(rows);
  // 53-bit uniforms in (0, 1]: never 0, so log() stays finite.
  auto uniform = [&state] {
    return static_cast<double>((SplitMix64(&state) >> 11) + 1) * 0x1.0p-53;
  };
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  while (values.size() < rows) {
    const double radius = std::sqrt(-2.0 * std::log(uniform()));
    const double angle = kTwoPi * uniform();
    for (double z : {radius * std::cos(angle), radius * std::sin(angle)}) {
      if (values.size() < rows) {
        values.push_back(std::clamp(mean + sd * z, lo, hi));
      }
    }
  }
  return values;
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || values[lo] == values[hi]) return values[lo];
  return values[lo] + frac * (values[hi] - values[lo]);
}

double P50(const std::vector<double>& values) { return Quantile(values, 0.5); }

WindowedQuantile MedianOfWindowQuantiles(const std::vector<TimedSample>& samples,
                                         std::int64_t from_ns,
                                         std::int64_t to_ns,
                                         std::size_t windows, double q) {
  WindowedQuantile out;
  out.value = std::numeric_limits<double>::quiet_NaN();
  if (windows == 0 || to_ns <= from_ns) return out;
  const double width =
      static_cast<double>(to_ns - from_ns) / static_cast<double>(windows);
  std::vector<std::vector<double>> bins(windows);
  for (const TimedSample& s : samples) {
    if (s.t_ns < from_ns || s.t_ns >= to_ns) continue;
    const auto i = static_cast<std::size_t>(
        static_cast<double>(s.t_ns - from_ns) / width);
    bins[std::min(i, windows - 1)].push_back(s.value);
  }
  std::vector<double> quantiles;
  for (std::vector<double>& bin : bins) {
    if (bin.empty()) continue;
    out.min_samples = quantiles.empty() ? bin.size()
                                        : std::min(out.min_samples, bin.size());
    quantiles.push_back(Quantile(std::move(bin), q));
  }
  out.windows_used = quantiles.size();
  if (!quantiles.empty()) out.value = Quantile(std::move(quantiles), 0.5);
  return out;
}

ReleaseMeanCheck CheckReleaseMean(const std::vector<double>& releases,
                                  const std::vector<double>& noise_scales,
                                  double reference, double k, double slack) {
  ReleaseMeanCheck check;
  if (releases.empty() || releases.size() != noise_scales.size()) return check;
  double sum = 0.0;
  double variance = 0.0;  // of the sum: a Laplace(b) draw has variance 2b^2
  for (std::size_t i = 0; i < releases.size(); ++i) {
    sum += releases[i];
    variance += 2.0 * noise_scales[i] * noise_scales[i];
  }
  const auto n = static_cast<double>(releases.size());
  check.error = std::fabs(sum / n - reference);
  check.allowed = k * std::sqrt(variance) / n + slack;
  check.ok = check.error <= check.allowed;
  return check;
}

double HighestSupportedPercentile(std::size_t n, std::size_t min_beyond) {
  double best = 0.0;
  for (double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    // Compare n * (100 - p) >= min_beyond * 100 in tenths of a percent,
    // exactly, so 95 with n = 200 qualifies (10 samples beyond).
    const auto tenths = static_cast<std::size_t>(std::llround(p * 10.0));
    if (n * (1000 - tenths) >= min_beyond * 1000) best = p;
  }
  return best;
}

std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0 &&
        static_cast<std::size_t>(span.parent) < spans.size()) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_ns, span.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = lo;  // everything before cursor is accounted for
    for (const auto& [start, end] : kids) {
      const std::int64_t a = std::max(start, cursor);
      const std::int64_t b = std::min(end, hi);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::map<std::string, std::int64_t> SelfTimeByName(
    const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = SelfTimes(spans);
  std::map<std::string, std::int64_t> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_name[spans[i].name] += self[i];
  }
  return by_name;
}

double FanoutEfficiency(const std::vector<BlockInterval>& blocks) {
  if (blocks.empty()) return 0.0;
  std::set<int> workers;
  std::int64_t first = blocks.front().start_ns;
  std::int64_t last = blocks.front().end_ns;
  double busy = 0.0;
  for (const BlockInterval& block : blocks) {
    workers.insert(block.worker);
    first = std::min(first, block.start_ns);
    last = std::max(last, block.end_ns);
    busy += static_cast<double>(block.end_ns - block.start_ns);
  }
  const double wall = static_cast<double>(last - first);
  if (wall <= 0.0) return 0.0;
  return busy / (static_cast<double>(workers.size()) * wall);
}

}  // namespace perfbench
