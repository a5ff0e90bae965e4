#ifndef PERFBENCH_SELFTEST_H_
#define PERFBENCH_SELFTEST_H_

namespace perfbench {

/// Runs the benchmark's self-tests; returns the number of failed checks.
/// Failures are always printed to stderr, passes only when `verbose`.
int RunSelfTests(bool verbose);

}  // namespace perfbench

#endif  // PERFBENCH_SELFTEST_H_
