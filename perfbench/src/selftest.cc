// Self-tests of the benchmark's own rules, on synthetic inputs. Every
// benchmark run executes them first and reports `correct: false` if one
// fails; `perfbench_service --selftest` runs them alone.

#include "selftest.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

struct Checker {
  bool verbose = false;
  int failures = 0;
  void Expect(bool ok, const std::string& what) {
    if (!ok) ++failures;
    if (!ok || verbose) {
      std::fprintf(stderr, "selftest %s: %s\n", ok ? "ok  " : "FAIL",
                   what.c_str());
    }
  }
  void Near(double got, double want, const std::string& what) {
    Expect(std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want)),
           what + " (got " + std::to_string(got) + ", want " +
               std::to_string(want) + ")");
  }
};

void PercentileRule(Checker& c) {
  c.Near(HighestSupportedPercentile(19), 0.0, "19 samples support no p50");
  c.Near(HighestSupportedPercentile(20), 50.0, "20 samples support p50");
  c.Near(HighestSupportedPercentile(199), 90.0, "199 samples stop at p90");
  c.Near(HighestSupportedPercentile(200), 95.0, "200 samples support p95");
  c.Near(HighestSupportedPercentile(999), 95.0, "999 samples stop at p95");
  c.Near(HighestSupportedPercentile(1000), 99.0, "1000 samples support p99");
  c.Near(HighestSupportedPercentile(10000), 99.9, "1e4 samples support p99.9");
  c.Near(HighestSupportedPercentile(400, 20), 95.0, "min_beyond is honoured");
  c.Near(Quantile({4, 1, 3, 2}, 0.5), 2.5, "quantile interpolates");
  c.Near(Quantile({1, 2, 3, 4, 5}, 0.95), 4.8, "p95 of 1..5");
  const double inf = std::numeric_limits<double>::infinity();
  c.Expect(std::isinf(Quantile({1, 2, inf}, 1.0)),
           "a failed request (inf) sorts last");
  c.Near(Quantile({1, 2, 3, inf}, 0.5), 2.5, "inf only moves the tail");
}

void WindowedTail(Checker& c) {
  // Four 10 ns sub-windows of [0, 40), ten samples each: values 1..10,
  // except that the third sub-window is a burst of slow requests.
  std::vector<TimedSample> samples;
  for (std::int64_t w = 0; w < 4; ++w) {
    for (std::int64_t i = 0; i < 10; ++i) {
      const double v = static_cast<double>(i + 1) * (w == 2 ? 100.0 : 1.0);
      samples.push_back({w * 10 + i, v});
    }
  }
  samples.push_back({40, 1e9});  // outside [from, to): ignored
  const WindowedQuantile p90 = MedianOfWindowQuantiles(samples, 0, 40, 4, 0.9);
  c.Near(p90.value, 9.1, "a burst in one sub-window leaves the median tail");
  c.Near(static_cast<double>(p90.windows_used), 4.0, "four sub-windows used");
  c.Near(static_cast<double>(p90.min_samples), 10.0, "ten samples each");
  c.Near(MedianOfWindowQuantiles(samples, 0, 40, 1, 0.5).value, 7.0,
         "one sub-window is the plain quantile");
  const WindowedQuantile sparse =
      MedianOfWindowQuantiles({{0, 1.0}, {35, 3.0}}, 0, 40, 4, 0.5);
  c.Near(sparse.value, 2.0, "empty sub-windows are skipped");
  c.Near(static_cast<double>(sparse.windows_used), 2.0,
         "two sub-windows have samples");
  c.Expect(std::isnan(MedianOfWindowQuantiles({}, 0, 40, 4, 0.5).value),
           "no samples give NaN");
}

void SpanSelfTime(Checker& c) {
  std::vector<Span> spans = {
      {"request", 0, 100, -1, 1},
      {"admission_wait", 0, 10, 0, 1},
      {"execute_blocks", 20, 50, 0, 1},
      {"noise", 40, 60, 0, 1},  // overlaps a sibling: union, not sum
      {"post_release", 90, 120, 0, 1},  // clipped to the parent
      {"block", 20, 30, 2, 1},
      {"block", 25, 40, 2, 1},
      {"budget_store.save", 200, 230, -1, 0},
  };
  const std::vector<std::int64_t> self = SelfTimes(spans);
  c.Near(static_cast<double>(self[0]), 40.0,
         "request self = 100 - |[0,10] u [20,60] u [90,100]|");
  c.Near(static_cast<double>(self[2]), 10.0,
         "execute_blocks self = 30 - |[20,40]|");
  c.Near(static_cast<double>(self[1]), 10.0, "a leaf's self time is its span");
  const auto by_name = SelfTimeByName(spans);
  c.Near(static_cast<double>(by_name.at("block")), 25.0,
         "self time sums per name");
  c.Near(static_cast<double>(by_name.at("budget_store.save")), 30.0,
         "a root without children keeps its whole span");
}

void Fanout(Checker& c) {
  c.Near(FanoutEfficiency({{1, 0, 10}, {1, 10, 20}, {2, 0, 20}}), 1.0,
         "two workers busy the whole span");
  c.Near(FanoutEfficiency({{1, 0, 10}, {2, 0, 5}}), 0.75,
         "one worker idle half the span");
  c.Near(FanoutEfficiency({{0, 0, 10}, {0, 15, 25}}), 0.8,
         "sequential fan-out with a gap");
  c.Near(FanoutEfficiency({}), 0.0, "empty fan-out");
}

void Inputs(Checker& c) {
  const std::vector<double> a = GaussianColumn(DeriveSeed(7, 1), 100000, 40.0,
                                               10.0, 0.0, 150.0);
  const std::vector<double> b = GaussianColumn(DeriveSeed(7, 1), 100000, 40.0,
                                               10.0, 0.0, 150.0);
  const std::vector<double> d = GaussianColumn(DeriveSeed(8, 1), 100000, 40.0,
                                               10.0, 0.0, 150.0);
  c.Expect(a == b, "one seed gives identical inputs");
  c.Expect(a != d, "another seed gives other inputs");
  bool in_range = true;
  for (double v : a) in_range = in_range && v >= 0.0 && v <= 150.0;
  c.Expect(in_range, "values are clamped to [0, 150]");
  c.Expect(std::fabs(Mean(a) - 40.0) < 0.2, "sample mean is near 40");
  c.Expect(DeriveSeed(7, 1) != DeriveSeed(7, 2), "purposes get distinct seeds");
  c.Near(Median({3, 1, 2}), 2.0, "odd median");
  c.Near(Median({4, 1, 3, 2}), 2.5, "even median");
}

/// `n` draws of center + Laplace(scale), by inverting the CDF.
std::vector<double> LaplaceStream(std::uint64_t seed, std::size_t n,
                                  double center, double scale) {
  std::uint64_t state = seed;
  std::vector<double> draws;
  for (std::size_t i = 0; i < n; ++i) {
    // Uniform in (-0.5, 0.5): 53-bit grid points offset by half a step.
    const double u =
        (static_cast<double>(SplitMix64(&state) >> 11) + 0.5) * 0x1.0p-53 - 0.5;
    draws.push_back(center - scale * std::copysign(1.0, u) *
                                 std::log(1.0 - 2.0 * std::fabs(u)));
  }
  return draws;
}

void ReleaseMean(Checker& c) {
  // charge_heavy's geometry: noise scale 37.5 around a reference near 40,
  // range width 150 (slack 1.5), a few thousand releases per run.
  constexpr std::size_t kN = 4000;
  constexpr double kScale = 37.5;
  constexpr double kRef = 40.0;
  constexpr double kSlack = 1.5;
  const std::vector<double> scales(kN, kScale);
  bool all_unbiased_pass = true;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    all_unbiased_pass =
        all_unbiased_pass &&
        CheckReleaseMean(LaplaceStream(seed, kN, kRef, kScale), scales, kRef,
                         6.0, kSlack)
            .ok;
  }
  c.Expect(all_unbiased_pass, "20 unbiased Laplace streams pass");
  const ReleaseMeanCheck biased = CheckReleaseMean(
      LaplaceStream(21, kN, kRef + 10.0, kScale), scales, kRef, 6.0, kSlack);
  c.Expect(!biased.ok, "a stream biased by 10 fails (error " +
                           std::to_string(biased.error) + ", allowed " +
                           std::to_string(biased.allowed) + ")");
  c.Expect(!CheckReleaseMean(LaplaceStream(22, kN, 75.0, kScale), scales, kRef,
                             6.0, kSlack)
                .ok,
           "noise around the range midpoint fails");
  c.Expect(!CheckReleaseMean(std::vector<double>(kN, 0.0), scales, kRef, 6.0,
                             kSlack)
                .ok,
           "a constant 0 fails");
  c.Near(CheckReleaseMean({1.0, 3.0}, {0.5, 0.5}, 2.0, 6.0, 0.0).allowed,
         3.0, "allowed = k * sqrt(sum 2 b^2) / N + slack");
  c.Expect(!CheckReleaseMean({}, {}, kRef, 6.0, kSlack).ok,
           "no releases fail");
}

}  // namespace

int RunSelfTests(bool verbose) {
  Checker c;
  c.verbose = verbose;
  PercentileRule(c);
  WindowedTail(c);
  SpanSelfTime(c);
  Fanout(c);
  Inputs(c);
  ReleaseMean(c);
  return c.failures;
}

}  // namespace perfbench
