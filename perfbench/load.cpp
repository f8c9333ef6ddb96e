#include "load.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"

namespace perfbench {

std::vector<Arrival> OpenLoopSchedule(uint32_t num_keys, double zipf_s,
                                      double rate_rps, double seconds,
                                      uint64_t seed) {
  std::vector<Arrival> stream;
  if (num_keys == 0 || rate_rps <= 0.0 || seconds <= 0.0) return stream;
  const xsum::ZipfTable zipf(num_keys, zipf_s);
  xsum::Rng rng(seed);
  const double horizon_us = seconds * 1e6;
  const double rate_per_us = rate_rps / 1e6;
  double t_us = 0.0;
  while (true) {
    t_us += rng.Exponential(rate_per_us);
    if (t_us >= horizon_us) break;
    Arrival arrival;
    arrival.due_us = static_cast<int64_t>(t_us);
    arrival.key = static_cast<uint32_t>(zipf.Sample(&rng));
    stream.push_back(arrival);
  }
  return stream;
}

std::vector<uint32_t> ZipfStream(uint32_t num_keys, double zipf_s,
                                 size_t count, uint64_t seed) {
  std::vector<uint32_t> stream;
  if (num_keys == 0) return stream;
  const xsum::ZipfTable zipf(num_keys, zipf_s);
  xsum::Rng rng(seed);
  stream.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    stream.push_back(static_cast<uint32_t>(zipf.Sample(&rng)));
  }
  return stream;
}

std::vector<uint32_t> SeededOrder(uint32_t n, uint64_t seed) {
  std::vector<uint32_t> order(n);
  for (uint32_t i = 0; i < n; ++i) order[i] = i;
  xsum::Rng rng(seed);
  rng.Shuffle(&order);
  return order;
}

uint64_t SamplesBeyond(uint64_t n, double p) {
  const uint64_t rank = static_cast<uint64_t>(
      std::ceil(static_cast<double>(n) * p / 100.0 - 1e-9));
  return n > rank ? n - rank : 0;
}

double TailPercentile(uint64_t n) {
  for (const double p : {99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0}) {
    if (SamplesBeyond(n, p) >= 10) return p;
  }
  return 0.0;
}

double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const size_t n = values->size();
  size_t rank = static_cast<size_t>(
      std::ceil(static_cast<double>(n) * p / 100.0 - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  return (*values)[rank - 1];
}

Outcome Classify(bool transported, int status, bool bytes_match) {
  if (!transported) return Outcome::kTransport;
  if (status == 503) return Outcome::kShed;
  if (status != 200) return Outcome::kNon200;
  return bytes_match ? Outcome::kOk : Outcome::kMismatch;
}

void ErrorTally::Count(Outcome outcome) {
  ++attempted;
  switch (outcome) {
    case Outcome::kOk:
      break;
    case Outcome::kNon200:
      ++non200;
      break;
    case Outcome::kShed:
      ++shed;
      break;
    case Outcome::kTransport:
      ++transport;
      break;
    case Outcome::kMismatch:
      ++mismatch;
      break;
  }
}

ErrorTally& ErrorTally::operator+=(const ErrorTally& rhs) {
  attempted += rhs.attempted;
  non200 += rhs.non200;
  shed += rhs.shed;
  transport += rhs.transport;
  mismatch += rhs.mismatch;
  return *this;
}

}  // namespace perfbench
