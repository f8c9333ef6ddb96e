/// \file selftest.cpp
/// \brief Self-tests of the benchmark's own load and accounting code:
///  1. the same seed gives an identical request stream and schedule, open
///     or closed loop (and a different seed a different one);
///  2. the reported tail percentile is the highest with at least ten
///     samples beyond it;
///  3. `error_rate` counts each failure kind.
/// Exits nonzero on the first failed check.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "load.h"

namespace pb = perfbench;

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void SameSeedSameStream() {
  const auto a = pb::OpenLoopSchedule(192, 1.1, 300.0, 5.0, 7);
  const auto b = pb::OpenLoopSchedule(192, 1.1, 300.0, 5.0, 7);
  const auto c = pb::OpenLoopSchedule(192, 1.1, 300.0, 5.0, 8);
  Check(!a.empty(), "schedule is empty");
  Check(a == b, "same seed gave a different stream or schedule");
  Check(a != c, "different seeds gave the same stream");
  bool sorted = true;
  bool in_range = true;
  for (size_t i = 0; i < a.size(); ++i) {
    if (i > 0 && a[i].due_us < a[i - 1].due_us) sorted = false;
    if (a[i].key >= 192 || a[i].due_us < 0 || a[i].due_us >= 5000000) {
      in_range = false;
    }
  }
  Check(sorted, "due times are not ascending");
  Check(in_range, "arrival outside the key range or the run");
  // Poisson count at 300/s over 5 s: 1500 ± a few standard deviations.
  Check(a.size() > 1350 && a.size() < 1650, "arrival count far from rate");
  const auto d = pb::ZipfStream(64, 1.1, 20000, 7);
  Check(d.size() == 20000, "stream has the requested length");
  Check(d == pb::ZipfStream(64, 1.1, 20000, 7),
        "same seed gave a different closed-loop stream");
  Check(d != pb::ZipfStream(64, 1.1, 20000, 8),
        "different seeds gave the same closed-loop stream");
  std::vector<size_t> counts(64, 0);
  for (const uint32_t key : d) {
    if (key < counts.size()) ++counts[key];
  }
  Check(counts[0] > counts[1] && counts[1] > counts[63],
        "closed-loop stream does not follow the Zipf ranks");
  Check(pb::SeededOrder(50, 3) == pb::SeededOrder(50, 3),
        "same seed gave a different order");
  Check(pb::SeededOrder(50, 3) != pb::SeededOrder(50, 4),
        "different seeds gave the same order");
}

void TailPercentileHasTenBeyond() {
  Check(pb::SamplesBeyond(1000, 99.0) == 10, "1000 samples: 10 beyond p99");
  Check(pb::SamplesBeyond(999, 99.0) == 9, "999 samples: 9 beyond p99");
  Check(pb::TailPercentile(1000) == 99.0, "1000 samples report p99");
  Check(pb::TailPercentile(999) == 98.0, "999 samples fall back to p98");
  Check(pb::TailPercentile(10000) == 99.9, "10000 samples report p99.9");
  Check(pb::TailPercentile(9) == 0.0, "9 samples support no percentile");
  for (uint64_t n = 20; n <= 20000; n += 37) {
    const double p = pb::TailPercentile(n);
    Check(pb::SamplesBeyond(n, p) >= 10, "tail has fewer than ten beyond");
    for (const double higher : {99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0}) {
      if (higher > p) {
        Check(pb::SamplesBeyond(n, higher) < 10,
              "a higher ladder percentile also has ten beyond");
      }
    }
  }
  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) values.push_back(i);
  Check(pb::Percentile(&values, 99.0) == 990.0, "nearest-rank p99");
  Check(pb::Percentile(&values, 50.0) == 500.0, "nearest-rank p50");
}

void ErrorRateCountsEachKind() {
  Check(pb::Classify(true, 200, true) == pb::Outcome::kOk, "200 ok");
  Check(pb::Classify(true, 200, false) == pb::Outcome::kMismatch,
        "200 with other bytes is a mismatch");
  Check(pb::Classify(true, 503, true) == pb::Outcome::kShed, "503 is shed");
  Check(pb::Classify(true, 500, true) == pb::Outcome::kNon200,
        "500 is non-200");
  Check(pb::Classify(true, 404, false) == pb::Outcome::kNon200,
        "404 is non-200");
  Check(pb::Classify(false, 0, false) == pb::Outcome::kTransport,
        "no answer is a transport error");

  pb::ErrorTally tally;
  for (int i = 0; i < 6; ++i) tally.Count(pb::Outcome::kOk);
  tally.Count(pb::Outcome::kNon200);
  tally.Count(pb::Outcome::kShed);
  tally.Count(pb::Outcome::kTransport);
  tally.Count(pb::Outcome::kMismatch);
  Check(tally.attempted == 10, "attempted counts every request");
  Check(tally.non200 == 1 && tally.shed == 1 && tally.transport == 1 &&
            tally.mismatch == 1,
        "each kind counted once");
  Check(tally.errors() == 4, "errors sum the kinds");
  Check(tally.rate() == 0.4, "error_rate = errors / attempted");
  pb::ErrorTally merged;
  merged += tally;
  merged += tally;
  Check(merged.attempted == 20 && merged.errors() == 8, "tallies merge");
  Check(pb::ErrorTally{}.rate() == 0.0, "empty tally has rate 0");
}

}  // namespace

int main() {
  SameSeedSameStream();
  TailPercentileHasTenBeyond();
  ErrorRateCountsEachKind();
  if (failures > 0) {
    std::fprintf(stderr, "perfbench selftest: %d check(s) failed\n",
                 failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
