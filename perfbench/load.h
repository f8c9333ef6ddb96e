/// \file load.h
/// \brief The serving benchmark's load-generation and accounting pieces
/// that do not need a fleet: seeded request streams and schedules, nearest-rank
/// percentiles with the "ten samples beyond" tail rule, and the per-kind
/// failure tally behind `error_rate`. Kept apart from serving.cpp so the
/// self-tests can pin them without standing up any servers.

#ifndef XSUM_PERFBENCH_LOAD_H_
#define XSUM_PERFBENCH_LOAD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// One open-loop arrival: when it is due (microseconds after the timed
/// phase starts) and which key of the workload's key list it asks for.
struct Arrival {
  int64_t due_us = 0;
  uint32_t key = 0;

  bool operator==(const Arrival&) const = default;
};

/// Poisson arrivals at \p rate_rps over [0, \p seconds), each picking key
/// rank r with probability ∝ 1/(r+1)^\p zipf_s over \p num_keys keys. A
/// pure function of its arguments: the same seed gives the same stream
/// and schedule, bit for bit.
std::vector<Arrival> OpenLoopSchedule(uint32_t num_keys, double zipf_s,
                                      double rate_rps, double seconds,
                                      uint64_t seed);

/// \p count keys drawn like OpenLoopSchedule's, without arrival times:
/// the request stream of a closed loop. The same seed gives the same
/// stream.
std::vector<uint32_t> ZipfStream(uint32_t num_keys, double zipf_s,
                                 size_t count, uint64_t seed);

/// A seeded Fisher-Yates permutation of [0, n).
std::vector<uint32_t> SeededOrder(uint32_t n, uint64_t seed);

/// Samples that lie beyond the nearest-rank \p p-th percentile of \p n
/// samples: n − ceil(n·p/100).
uint64_t SamplesBeyond(uint64_t n, double p);

/// The highest percentile of a fixed ladder (99.9, 99.5, 99, 98, 95, 90,
/// 75, 50) that has at least ten samples beyond it among \p n samples;
/// 0 when even the median lacks ten.
double TailPercentile(uint64_t n);

/// Nearest-rank percentile of \p values (sorted in place); 0 when empty.
double Percentile(std::vector<double>* values, double p);

/// Median by the same rule.
inline double Median(std::vector<double> values) {
  return Percentile(&values, 50.0);
}

/// How one attempted request ended.
enum class Outcome {
  kOk,         ///< 200 with the expected bytes
  kNon200,     ///< any status other than 200 and 503
  kShed,       ///< 503: shed by admission control or not ready
  kTransport,  ///< no HTTP answer at all (refused, reset, timed out)
  kMismatch,   ///< 200 whose body differs from the expected bytes
};

/// Classifies one request. \p bytes_match is only read for a 200.
Outcome Classify(bool transported, int status, bool bytes_match);

/// \brief Failures by kind against requests attempted; `error_rate` is
/// their sum over `attempted`.
struct ErrorTally {
  uint64_t attempted = 0;
  uint64_t non200 = 0;
  uint64_t shed = 0;
  uint64_t transport = 0;
  uint64_t mismatch = 0;

  void Count(Outcome outcome);
  uint64_t errors() const { return non200 + shed + transport + mismatch; }
  double rate() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(errors()) /
                                static_cast<double>(attempted);
  }
  ErrorTally& operator+=(const ErrorTally& rhs);
};

}  // namespace perfbench

#endif  // XSUM_PERFBENCH_LOAD_H_
