// Randomized Redis-lite fuzzing against a reference model, under memory
// pressure and with/without the app-aware guide — the store must behave
// exactly like an in-memory map no matter how the pager shuffles its pages.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>
#include <unordered_map>

#include "src/dilos/readahead.h"
#include "src/dilos/runtime.h"
#include "src/guides/redis_guide.h"
#include "src/redis/redis.h"
#include "src/sim/rng.h"

namespace dilos {
namespace {

// No padding bytes: gtest names each run by a byte dump of its parameter, so
// every byte must be set for the test names to be the same on every build.
struct FuzzParam {
  uint64_t seed;
  uint64_t guided;  // 0 or 1.
};
static_assert(sizeof(FuzzParam) == 16);

class RedisFuzz : public ::testing::TestWithParam<FuzzParam> {
 protected:
  RedisFuzz() {
    DilosConfig cfg;
    cfg.local_mem_bytes = 768 * 1024;  // Tight: constant eviction.
    rt_ = std::make_unique<DilosRuntime>(fabric_, cfg, std::make_unique<ReadaheadPrefetcher>());
    redis_ = std::make_unique<RedisLite>(*rt_, 1 << 10);
    if (GetParam().guided) {
      guide_ = std::make_unique<RedisGuide>(&redis_->heap());
      redis_->set_hooks(guide_.get());
      rt_->set_guide(guide_.get());
    }
  }

  Fabric fabric_;
  std::unique_ptr<DilosRuntime> rt_;
  std::unique_ptr<RedisLite> redis_;
  std::unique_ptr<RedisGuide> guide_;
};

TEST_P(RedisFuzz, StringCommandsMatchReferenceModel) {
  Rng rng(GetParam().seed);
  std::unordered_map<std::string, std::string> model;
  std::string got;
  for (int step = 0; step < 3000; ++step) {
    std::string key = "k" + std::to_string(rng.NextBelow(400));
    double roll = rng.NextDouble();
    if (roll < 0.45) {
      std::string value(16 + rng.NextBelow(3000), '\0');
      for (auto& ch : value) {
        ch = static_cast<char>('a' + rng.NextBelow(26));
      }
      redis_->Set(key, value);
      model[key] = std::move(value);
    } else if (roll < 0.75) {
      bool ok = redis_->Get(key, &got);
      auto it = model.find(key);
      ASSERT_EQ(ok, it != model.end()) << key;
      if (ok) {
        ASSERT_EQ(got, it->second) << key;
      }
    } else {
      bool ok = redis_->Del(key);
      ASSERT_EQ(ok, model.erase(key) > 0) << key;
    }
  }
  EXPECT_EQ(redis_->dict().size(), model.size());
  // Full verification pass.
  for (const auto& [k, v] : model) {
    ASSERT_TRUE(redis_->Get(k, &got)) << k;
    ASSERT_EQ(got, v) << k;
  }
}

TEST_P(RedisFuzz, ListCommandsMatchReferenceModel) {
  Rng rng(GetParam().seed * 31 + 7);
  std::unordered_map<std::string, std::deque<std::string>> model;
  std::vector<std::string> got;
  for (int step = 0; step < 2500; ++step) {
    std::string key = "l" + std::to_string(rng.NextBelow(40));
    double roll = rng.NextDouble();
    if (roll < 0.55) {
      std::string value(8 + rng.NextBelow(120), '\0');
      for (auto& ch : value) {
        ch = static_cast<char>('A' + rng.NextBelow(26));
      }
      redis_->Rpush(key, value);
      model[key].push_back(std::move(value));
    } else if (roll < 0.9) {
      uint32_t start = static_cast<uint32_t>(rng.NextBelow(50));
      uint32_t count = 1 + static_cast<uint32_t>(rng.NextBelow(60));
      got.clear();
      uint32_t n = redis_->Lrange(key, start, count, &got);
      const auto it = model.find(key);
      uint64_t expect =
          it == model.end() || it->second.size() <= start
              ? 0
              : std::min<uint64_t>(count, it->second.size() - start);
      ASSERT_EQ(n, expect) << key << " start=" << start;
      ASSERT_EQ(got.size(), expect);
      for (uint32_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], it->second[start + i]) << key << "[" << start + i << "]";
      }
    } else {
      bool ok = redis_->Del(key);
      ASSERT_EQ(ok, model.erase(key) > 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Runs, RedisFuzz,
                         ::testing::Values(FuzzParam{11, 0}, FuzzParam{12, 0}, FuzzParam{13, 1},
                                           FuzzParam{14, 1}, FuzzParam{15, 1}));

}  // namespace
}  // namespace dilos
