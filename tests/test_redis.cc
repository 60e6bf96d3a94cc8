// Tests for Redis-lite: command semantics on far memory, quicklist
// structure, the benchmark driver, and behavior under memory pressure.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/dilos/readahead.h"
#include "src/dilos/runtime.h"
#include "src/redis/redis.h"
#include "src/redis/redis_bench.h"

namespace dilos {
namespace {

class RedisTest : public ::testing::Test {
 protected:
  explicit RedisTest(uint64_t local_bytes = 16 << 20) {
    DilosConfig cfg;
    cfg.local_mem_bytes = local_bytes;
    rt_ = std::make_unique<DilosRuntime>(fabric_, cfg, std::make_unique<ReadaheadPrefetcher>());
    redis_ = std::make_unique<RedisLite>(*rt_, 1 << 12);
  }

  Fabric fabric_;
  std::unique_ptr<DilosRuntime> rt_;
  std::unique_ptr<RedisLite> redis_;
};

TEST_F(RedisTest, SetGetRoundTrip) {
  redis_->Set("hello", "world");
  std::string v;
  ASSERT_TRUE(redis_->Get("hello", &v));
  EXPECT_EQ(v, "world");
}

TEST_F(RedisTest, GetMissingReturnsFalse) {
  std::string v;
  EXPECT_FALSE(redis_->Get("nope", &v));
}

TEST_F(RedisTest, SetOverwrites) {
  redis_->Set("k", "v1");
  redis_->Set("k", "v2-longer-value");
  std::string v;
  ASSERT_TRUE(redis_->Get("k", &v));
  EXPECT_EQ(v, "v2-longer-value");
  EXPECT_EQ(redis_->dict().size(), 1u);
}

TEST_F(RedisTest, DelRemovesAndFrees) {
  redis_->Set("k", std::string(1000, 'x'));
  uint64_t live_before = redis_->heap().live_bytes();
  ASSERT_TRUE(redis_->Del("k"));
  std::string v;
  EXPECT_FALSE(redis_->Get("k", &v));
  EXPECT_LT(redis_->heap().live_bytes(), live_before);
  EXPECT_FALSE(redis_->Del("k"));  // Second DEL is a miss.
}

TEST_F(RedisTest, LargeValuesSurvive) {
  std::string big(128 * 1024, '\0');
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>('a' + i % 26);
  }
  redis_->Set("big", big);
  std::string v;
  ASSERT_TRUE(redis_->Get("big", &v));
  EXPECT_EQ(v, big);
}

TEST_F(RedisTest, ManyKeysHashChains) {
  // More keys than buckets in some chains: collision handling must hold.
  for (int i = 0; i < 5000; ++i) {
    redis_->Set(RedisBench::KeyName(static_cast<uint64_t>(i)), "v" + std::to_string(i));
  }
  EXPECT_EQ(redis_->dict().size(), 5000u);
  std::string v;
  ASSERT_TRUE(redis_->Get(RedisBench::KeyName(4321), &v));
  EXPECT_EQ(v, "v4321");
}

TEST_F(RedisTest, RpushLrangeOrdered) {
  for (int i = 0; i < 300; ++i) {
    redis_->Rpush("mylist", "elem-" + std::to_string(i));
  }
  std::vector<std::string> out;
  EXPECT_EQ(redis_->Lrange("mylist", 0, 100, &out), 100u);
  ASSERT_EQ(out.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)], "elem-" + std::to_string(i));
  }
}

TEST_F(RedisTest, LrangeSpansMultipleNodes) {
  // 300 elements with 32-entry ziplists => ~10 quicklist nodes; ranges that
  // start mid-node must decode correctly.
  for (int i = 0; i < 300; ++i) {
    redis_->Rpush("l", std::to_string(i));
  }
  std::vector<std::string> out;
  EXPECT_EQ(redis_->Lrange("l", 90, 50, &out), 50u);
  EXPECT_EQ(out.front(), "90");
  EXPECT_EQ(out.back(), "139");
}

TEST_F(RedisTest, LrangePastEndTruncates) {
  for (int i = 0; i < 10; ++i) {
    redis_->Rpush("s", std::to_string(i));
  }
  std::vector<std::string> out;
  EXPECT_EQ(redis_->Lrange("s", 5, 100, &out), 5u);
  out.clear();
  EXPECT_EQ(redis_->Lrange("missing", 0, 10, &out), 0u);
  EXPECT_TRUE(out.empty());
}

TEST_F(RedisTest, DelListFreesAllNodes) {
  for (int i = 0; i < 200; ++i) {
    redis_->Rpush("l", std::string(90, 'z'));
  }
  uint64_t live_before = redis_->heap().live_bytes();
  ASSERT_TRUE(redis_->Del("l"));
  EXPECT_LT(redis_->heap().live_bytes(), live_before / 4);
}

class RedisPressureTest : public RedisTest {
 protected:
  RedisPressureTest() : RedisTest(2 << 20) {}  // 2 MB local only.
};

TEST_F(RedisPressureTest, WorkloadSurvivesEviction) {
  RedisBench bench(*redis_);
  bench.PopulateStrings(2000, {4096});  // ~8 MB of values, 2 MB local.
  EXPECT_GT(rt_->stats().evictions, 0u);
  RedisBenchResult res = bench.RunGet(500);
  EXPECT_EQ(res.ops, 500u);
  EXPECT_GT(res.OpsPerSec(), 0.0);
  EXPECT_GT(res.latency.Percentile(99), res.latency.Percentile(50));
}

TEST_F(RedisPressureTest, DelThenGetStillCorrect) {
  RedisBench bench(*redis_);
  bench.PopulateStrings(2000, {1024});
  bench.RunDel(1400);  // ~70% as in Fig. 12.
  EXPECT_EQ(bench.live_keys(), 600u);
  RedisBenchResult res = bench.RunGet(300);
  EXPECT_EQ(res.ops, 300u);  // Every surviving key must still resolve.
}

TEST_F(RedisPressureTest, LrangeWorkload) {
  RedisBench bench(*redis_);
  bench.PopulateLists(64, 64 * 100, 90);
  RedisBenchResult res = bench.RunLrange(100);
  EXPECT_EQ(res.ops, 100u);
  EXPECT_GT(res.latency.MeanNs(), 0.0);
}

// MakeValue's periodic fill against the byte-by-byte definition, across the
// 624-byte period's edges and for salts whose key x sits just below 2^64,
// where the sum wraps and the fill must fall back to the definition.
TEST(RedisBenchValue, MakeValueMatchesTheByteLoop) {
  auto reference = [](uint32_t size, uint64_t salt) {
    std::string v(size, '\0');
    uint64_t x = salt * 0x9E3779B97F4A7C15ULL + 1;
    for (uint32_t i = 0; i < size; ++i) {
      v[i] = static_cast<char>('A' + ((x >> (i % 48)) + i) % 26);
    }
    return v;
  };
  // The multiplier is odd, so it has an inverse mod 2^64 (Newton's method):
  // salt = (x - 1) * inverse reaches any key x.
  uint64_t inverse = 1;
  for (int i = 0; i < 6; ++i) {
    inverse *= 2 - 0x9E3779B97F4A7C15ULL * inverse;
  }
  std::vector<uint64_t> salts;
  for (uint64_t salt = 0; salt < 3000; ++salt) {
    salts.push_back(salt);
  }
  for (uint64_t d = 0; d < 300; ++d) {
    salts.push_back((UINT64_MAX - d - 1) * inverse);
  }
  ASSERT_EQ(salts.back() * 0x9E3779B97F4A7C15ULL + 1, UINT64_MAX - 299);
  uint64_t mismatches = 0;
  for (uint32_t size : {0u, 1u, 90u, 128u, 623u, 624u, 625u, 1248u, 4096u, 131072u}) {
    for (uint64_t salt : salts) {
      mismatches += RedisBench::MakeValue(size, salt) == reference(size, salt) ? 0 : 1;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace dilos
