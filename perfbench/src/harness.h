// Pure helpers of the end-to-end service benchmark: deterministic inputs,
// percentile selection, span self time and fan-out efficiency. Nothing here
// touches the GUPT libraries, so selftest.cc can pin every rule on
// synthetic inputs.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Deterministic inputs. The benchmark owns its generator (splitmix64 plus
// Box-Muller) so the inputs do not change when the library's RNG does.

/// One splitmix64 step: advances *state and returns the next output.
std::uint64_t SplitMix64(std::uint64_t* state);

/// Independent sub-seed of the workload seed for one purpose (dataset,
/// runtime seed, direct calls).
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t purpose);

/// `rows` draws of Gaussian(mean, sd), each clamped to [lo, hi].
std::vector<double> GaussianColumn(std::uint64_t seed, std::size_t rows,
                                   double mean, double sd, double lo,
                                   double hi);

/// Non-private references the correctness gate compares releases with.
double Mean(const std::vector<double>& values);
/// Median (mean of the two middle values for even sizes).
double Median(std::vector<double> values);

/// The aggregate half of the release gate. Each release is the reference
/// plus Laplace noise of its scale b_i (variance 2 b_i^2), plus a small
/// aggregation bias. Over N releases the mean's error must stay within
/// k * sqrt(sum 2 b_i^2) / N + slack: k standard errors of the noise plus
/// the bias the per-release gate also allows. A wrong statistic, a constant
/// or a shifted noise stream fails it once N is in the thousands, where the
/// per-release bound (tens of noise scales) admits any in-range answer.
struct ReleaseMeanCheck {
  double error = 0.0;    // |mean(release) - reference|
  double allowed = 0.0;  // the bound it is held to
  bool ok = false;       // false also for no releases or mismatched inputs
};
ReleaseMeanCheck CheckReleaseMean(const std::vector<double>& releases,
                                  const std::vector<double>& noise_scales,
                                  double reference, double k, double slack);

// ---------------------------------------------------------------------------
// Statistics.

/// Linear-interpolation quantile (q in [0, 1]) of `values`; +inf entries
/// (failed requests) sort last. NaN when `values` is empty.
double Quantile(std::vector<double> values, double q);

/// Median of `values` (Quantile at 0.5).
double P50(const std::vector<double>& values);

/// One timed sample: when its request started, and its value.
struct TimedSample {
  std::int64_t t_ns = 0;
  double value = 0.0;
};

/// The `q` quantile within each of `windows` equal sub-windows of
/// [from_ns, to_ns) (a sample belongs to the sub-window its t_ns falls in),
/// then the median of those quantiles. A burst of slow requests caused by
/// another tenant of the host moves the tail of a few sub-windows, not the
/// median. Sub-windows without samples are skipped; `value` is NaN when
/// none has any.
struct WindowedQuantile {
  double value = 0.0;
  std::size_t windows_used = 0;
  std::size_t min_samples = 0;  // fewest samples in a sub-window used
};
WindowedQuantile MedianOfWindowQuantiles(const std::vector<TimedSample>& samples,
                                         std::int64_t from_ns,
                                         std::int64_t to_ns,
                                         std::size_t windows, double q);

/// The highest percentile of {50, 90, 95, 99, 99.9} that leaves at least
/// `min_beyond` of `n` samples above it, i.e. n * (1 - p/100) >= min_beyond.
/// 0 when not even the median qualifies.
double HighestSupportedPercentile(std::size_t n, std::size_t min_beyond = 10);

// ---------------------------------------------------------------------------
// Spans.

/// One traced interval on the steady clock (nanoseconds since the
/// library's trace epoch). `parent` is the index of the enclosing span in
/// the same vector, or -1 for a root.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers.
std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans);

/// Total self time per span name, in nanoseconds.
std::map<std::string, std::int64_t> SelfTimeByName(
    const std::vector<Span>& spans);

/// One block execution of a fan-out.
struct BlockInterval {
  int worker = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Sum of block durations divided by (distinct workers x the fan-out's
/// wall span, first block start to last block end). 1.0 means every worker
/// used was busy for the whole fan-out; 0 for an empty fan-out.
double FanoutEfficiency(const std::vector<BlockInterval>& blocks);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
