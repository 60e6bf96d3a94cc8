// Parameterized property tests of the szip codec: exact round trips over a
// sweep of sizes and entropy profiles, on host buffers and through far
// memory, plus ratio and framing invariants.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/apps/szip.h"
#include "src/dilos/readahead.h"
#include "src/dilos/runtime.h"
#include "src/sim/rng.h"

namespace dilos {
namespace {

enum class Profile { kZeros, kRuns, kText, kRandom, kAlternating };

std::vector<uint8_t> MakeData(Profile profile, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> data(n);
  switch (profile) {
    case Profile::kZeros:
      break;
    case Profile::kRuns:
      for (size_t i = 0; i < n; ++i) {
        data[i] = static_cast<uint8_t>('a' + (i / 97) % 5);
      }
      break;
    case Profile::kText:
      for (size_t i = 0; i < n; ++i) {
        data[i] = (i % 90 < 70) ? static_cast<uint8_t>('a' + (i * 7) % 26)
                                : static_cast<uint8_t>(rng.Next());
      }
      break;
    case Profile::kRandom:
      for (size_t i = 0; i < n; ++i) {
        data[i] = static_cast<uint8_t>(rng.Next());
      }
      break;
    case Profile::kAlternating:
      for (size_t i = 0; i < n; ++i) {
        data[i] = (i & 1) ? 0xAA : 0x55;
      }
      break;
  }
  return data;
}

void HostBufferExact(Profile profile, size_t n) {
  std::vector<uint8_t> src = MakeData(profile, n, 42);
  std::vector<uint8_t> comp;
  SzipCompressBlock(src.data(), src.size(), &comp);
  std::vector<uint8_t> back;
  ASSERT_EQ(SzipDecompressBlock(comp.data(), comp.size(), &back), n);
  ASSERT_EQ(back, src);
}

void CompressionRatioSane(Profile profile, size_t n) {
  std::vector<uint8_t> src = MakeData(profile, n, 43);
  std::vector<uint8_t> comp;
  SzipCompressBlock(src.data(), src.size(), &comp);
  switch (profile) {
    case Profile::kZeros:
    case Profile::kAlternating:
      EXPECT_LT(comp.size(), n / 10);  // Trivially compressible.
      break;
    case Profile::kRuns:
      EXPECT_LT(comp.size(), n / 2);
      break;
    case Profile::kText:
      EXPECT_LT(comp.size(), n + n / 8);  // Never catastrophic expansion.
      break;
    case Profile::kRandom:
      EXPECT_LT(comp.size(), n + n / 8 + 16);  // Bounded overhead on noise.
      break;
  }
}

void ThroughFarMemoryExact(Profile profile, size_t n) {
  Fabric fabric;
  DilosConfig cfg;
  cfg.local_mem_bytes = 256 * 1024;  // Pressure during the stream.
  DilosRuntime rt(fabric, cfg, std::make_unique<ReadaheadPrefetcher>());
  std::vector<uint8_t> src = MakeData(profile, n, 44);
  uint64_t s = rt.AllocRegion(n);
  rt.WriteBytes(s, src.data(), n);
  uint64_t d = rt.AllocRegion(2 * n + 4096);
  uint64_t b = rt.AllocRegion(n + 4096);
  SzipFar szip(rt);
  SzipResult c = szip.Compress(s, n, d);
  SzipResult dec = szip.Decompress(d, c.out_bytes, b);
  ASSERT_EQ(dec.out_bytes, n);
  std::vector<uint8_t> back(n);
  rt.ReadBytes(b, back.data(), n);
  ASSERT_EQ(back, src);
}

using SzipParam = std::tuple<Profile, size_t>;
using SzipProperty = void (*)(Profile, size_t);

class SzipRoundTrip : public ::testing::Test {
 public:
  SzipRoundTrip(SzipProperty property, SzipParam param) : property_(property), param_(param) {}
  void TestBody() override { property_(std::get<0>(param_), std::get<1>(param_)); }

 private:
  SzipProperty property_;
  SzipParam param_;
};

// Registers `property` as Sweep/SzipRoundTrip.<name>/<i> over the profile x
// size sweep, skipping sizes below `min_size`. Names follow
// INSTANTIATE_TEST_SUITE_P's scheme: <i> is the combination's index in the
// full sweep and gtest prints the parameter, so each combination has the
// same name in every property it runs under.
void RegisterSweep(const char* name, SzipProperty property, size_t min_size) {
  const Profile profiles[] = {Profile::kZeros, Profile::kRuns, Profile::kText, Profile::kRandom,
                              Profile::kAlternating};
  const size_t sizes[] = {1, 255, 4096, 65536, 200000};
  int index = 0;
  for (Profile profile : profiles) {
    for (size_t n : sizes) {
      SzipParam param{profile, n};
      std::string test = std::string(name) + "/" + std::to_string(index++);
      if (n < min_size) {
        continue;
      }
      ::testing::RegisterTest(
          "Sweep/SzipRoundTrip", test.c_str(), nullptr, ::testing::PrintToString(param).c_str(),
          __FILE__, __LINE__,
          [=]() -> SzipRoundTrip* { return new SzipRoundTrip(property, param); });
    }
  }
}

[[maybe_unused]] const bool kSweepRegistered = [] {
  RegisterSweep("HostBufferExact", HostBufferExact, 0);
  // The ratio is not meaningful for tiny inputs.
  RegisterSweep("CompressionRatioSane", CompressionRatioSane, 256);
  // The far path exercises block framing, which is trivial below a block.
  RegisterSweep("ThroughFarMemoryExact", ThroughFarMemoryExact, 64);
  return true;
}();

TEST(SzipEdge, MatchAtBlockTail) {
  // A match whose extension runs exactly to the end of the input.
  std::vector<uint8_t> src;
  for (int i = 0; i < 100; ++i) {
    src.push_back(static_cast<uint8_t>(i));
  }
  src.insert(src.end(), src.begin(), src.begin() + 100);  // Exact repeat.
  std::vector<uint8_t> comp;
  SzipCompressBlock(src.data(), src.size(), &comp);
  std::vector<uint8_t> back;
  ASSERT_EQ(SzipDecompressBlock(comp.data(), comp.size(), &back), src.size());
  EXPECT_EQ(back, src);
  EXPECT_LT(comp.size(), 140u);  // The repeat collapsed into one match.
}

TEST(SzipEdge, OverlappingMatchDistanceOne) {
  // "aaaa..." produces offset-1 overlapping copies — the classic LZ77 edge.
  std::vector<uint8_t> src(1000, 'a');
  src[0] = 'b';
  std::vector<uint8_t> comp;
  SzipCompressBlock(src.data(), src.size(), &comp);
  std::vector<uint8_t> back;
  ASSERT_EQ(SzipDecompressBlock(comp.data(), comp.size(), &back), src.size());
  EXPECT_EQ(back, src);
}

TEST(SzipEdge, TruncatedStreamFailsCleanly) {
  std::vector<uint8_t> src = MakeData(Profile::kText, 5000, 45);
  std::vector<uint8_t> comp;
  SzipCompressBlock(src.data(), src.size(), &comp);
  for (size_t cut : {size_t{1}, comp.size() / 2, comp.size() - 1}) {
    std::vector<uint8_t> back;
    size_t got = SzipDecompressBlock(comp.data(), cut, &back);
    EXPECT_NE(got, src.size()) << "cut=" << cut;
  }
}

}  // namespace
}  // namespace dilos
