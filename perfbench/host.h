// Host-clock instruments of the benchmark driver: process CPU time, memory,
// a counting global operator new, and the SIGPROF sampler behind the traced
// run. Everything here measures the driver's own process; none of it is
// compiled into the program under test.

#ifndef MYRAFT_PERFBENCH_HOST_H_
#define MYRAFT_PERFBENCH_HOST_H_

#include <cstdint>
#include <string>

namespace perfbench {

/// Process CPU time (user + sys, CLOCK_PROCESS_CPUTIME_ID) in nanoseconds.
uint64_t CpuNanos();

/// Resident set size, KiB (VmRSS in /proc/self/status).
uint64_t RssKb();

/// Heap allocations made through global operator new since process start.
uint64_t AllocCount();

/// CPU spent, and heap allocations made, in benchmark-side bookkeeping
/// (trace analysis, durability scans) while an ExcludedScope was open.
/// Timed windows subtract both, and the sampler drops samples taken inside
/// a scope, so host metrics charge only the program under test.
uint64_t ExcludedCpuNanos();
uint64_t ExcludedAllocCount();

class ExcludedScope {
 public:
  ExcludedScope();
  ~ExcludedScope();
  ExcludedScope(const ExcludedScope&) = delete;
  ExcludedScope& operator=(const ExcludedScope&) = delete;

 private:
  uint64_t start_cpu_;
  uint64_t start_allocs_;
};

/// ITIMER_PROF sampler. The SIGPROF handler stores the interrupted PC plus
/// the return addresses above it into a buffer allocated by Start(); no
/// allocation or I/O happens in the handler. Attribution to src/ modules
/// is done offline (perfbench/run.py, addr2line -i).
class Sampler {
 public:
  /// Arms the timer (period in microseconds of process CPU time).
  static void Start(uint64_t period_micros, size_t max_samples);
  static void Stop();
  static size_t samples();
  static size_t dropped();
  /// Writes "bias <hex>" and one line of hex addresses per sample, leaf
  /// first. Addresses are runtime PCs; subtracting the bias gives the
  /// executable's file addresses.
  static bool WriteTo(const std::string& path);
};

}  // namespace perfbench

#endif  // MYRAFT_PERFBENCH_HOST_H_
