#include "src/redis/redis_bench.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>

namespace dilos {

std::string RedisBench::KeyName(uint64_t i) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "key:%010llu", static_cast<unsigned long long>(i));
  return buf;
}

std::string RedisBench::MakeValue(uint32_t size, uint64_t salt) {
  std::string v(size, '\0');
  uint64_t x = salt * 0x9E3779B97F4A7C15ULL + 1;
  // Byte i is 'A' + ((x >> (i % 48)) + i) % 26. The sum wraps past 2^64 only
  // for a shift of 0 and x within `size` of the top; then take it byte by
  // byte.
  if (x > UINT64_MAX - size) {
    for (uint32_t i = 0; i < size; ++i) {
      v[i] = static_cast<char>('A' + ((x >> (i % 48)) + i) % 26);
    }
    return v;
  }
  // Otherwise byte i is 'A' + ((x >> (i % 48)) % 26 + i % 26) % 26, which
  // repeats every lcm(48, 26) = 624 bytes: fill one period from counters,
  // then double the filled prefix.
  constexpr uint32_t kPeriod = 624;
  uint32_t residue[48] = {};
  for (uint32_t r = 0; r < 48; ++r) {
    residue[r] = static_cast<uint32_t>((x >> r) % 26);
  }
  uint32_t filled = std::min(size, kPeriod);
  for (uint32_t i = 0, r = 0, m = 0; i < filled; ++i) {
    uint32_t sum = residue[r] + m;
    v[i] = static_cast<char>('A' + (sum >= 26 ? sum - 26 : sum));
    r = r == 47 ? 0 : r + 1;
    m = m == 25 ? 0 : m + 1;
  }
  while (filled < size) {
    uint32_t n = std::min(filled, size - filled);
    std::memcpy(v.data() + filled, v.data(), n);
    filled += n;
  }
  return v;
}

void RedisBench::PopulateStrings(uint64_t nkeys, const std::vector<uint32_t>& sizes) {
  live_.clear();
  live_.reserve(nkeys);
  for (uint64_t i = 0; i < nkeys; ++i) {
    uint32_t size = sizes[i % sizes.size()];
    redis_.Set(KeyName(i), MakeValue(size, i));
    live_.push_back(i);
  }
}

RedisBenchResult RedisBench::RunGet(uint64_t queries) {
  RedisBenchResult res;
  Clock& clk = redis_.runtime().clock();
  uint64_t t0 = clk.now();
  std::string value;
  for (uint64_t q = 0; q < queries; ++q) {
    uint64_t idx = live_[rng_.NextBelow(live_.size())];
    uint64_t op0 = clk.now();
    bool ok = redis_.Get(KeyName(idx), &value);
    res.latency.Record(clk.now() - op0);
    res.ops += ok ? 1 : 0;
  }
  res.elapsed_ns = clk.now() - t0;
  return res;
}

RedisBenchResult RedisBench::RunGetZipf(uint64_t queries, double theta) {
  RedisBenchResult res;
  Clock& clk = redis_.runtime().clock();
  ZipfSampler zipf(live_.size(), theta, 123);
  uint64_t t0 = clk.now();
  std::string value;
  for (uint64_t q = 0; q < queries; ++q) {
    uint64_t idx = live_[zipf.Next()];
    uint64_t op0 = clk.now();
    bool ok = redis_.Get(KeyName(idx), &value);
    res.latency.Record(clk.now() - op0);
    res.ops += ok ? 1 : 0;
  }
  res.elapsed_ns = clk.now() - t0;
  return res;
}

RedisBenchResult RedisBench::RunDel(uint64_t ndel) {
  RedisBenchResult res;
  Clock& clk = redis_.runtime().clock();
  uint64_t t0 = clk.now();
  for (uint64_t q = 0; q < ndel && !live_.empty(); ++q) {
    uint64_t pos = rng_.NextBelow(live_.size());
    uint64_t idx = live_[pos];
    live_[pos] = live_.back();
    live_.pop_back();
    uint64_t op0 = clk.now();
    bool ok = redis_.Del(KeyName(idx));
    res.latency.Record(clk.now() - op0);
    res.ops += ok ? 1 : 0;
  }
  res.elapsed_ns = clk.now() - t0;
  return res;
}

void RedisBench::PopulateLists(uint64_t nlists, uint64_t total_elems, uint32_t elem_size) {
  nlists_ = nlists;
  for (uint64_t e = 0; e < total_elems; ++e) {
    uint64_t list = rng_.NextBelow(nlists);
    redis_.Rpush("list:" + KeyName(list), MakeValue(elem_size, e));
  }
}

RedisBenchResult RedisBench::RunLrange(uint64_t queries, uint32_t count) {
  RedisBenchResult res;
  Clock& clk = redis_.runtime().clock();
  uint64_t t0 = clk.now();
  std::vector<std::string> out;
  for (uint64_t q = 0; q < queries; ++q) {
    uint64_t list = rng_.NextBelow(nlists_);
    out.clear();
    uint64_t op0 = clk.now();
    redis_.Lrange("list:" + KeyName(list), 0, count, &out);
    res.latency.Record(clk.now() - op0);
    res.ops++;
  }
  res.elapsed_ns = clk.now() - t0;
  return res;
}

}  // namespace dilos
