// Shared setup for the Redis-lite benchmark binaries (Fig. 10, Table 4,
// Fig. 12).
#ifndef DILOS_BENCH_REDIS_COMMON_H_
#define DILOS_BENCH_REDIS_COMMON_H_

#include <memory>

#include "bench/common.h"
#include "src/guides/redis_guide.h"
#include "src/redis/redis.h"
#include "src/redis/redis_bench.h"

namespace dilos {

enum class RedisSystem { kFastswap, kDilosNone, kDilosReadahead, kDilosTrend, kDilosAppAware };

inline const char* RedisSystemName(RedisSystem s) {
  switch (s) {
    case RedisSystem::kFastswap:
      return "Fastswap";
    case RedisSystem::kDilosNone:
      return "DiLOS no-prefetch";
    case RedisSystem::kDilosReadahead:
      return "DiLOS readahead";
    case RedisSystem::kDilosTrend:
      return "DiLOS trend-based";
    case RedisSystem::kDilosAppAware:
      return "DiLOS app-aware";
  }
  return "?";
}

inline constexpr RedisSystem kAllRedisSystems[] = {
    RedisSystem::kFastswap, RedisSystem::kDilosNone, RedisSystem::kDilosReadahead,
    RedisSystem::kDilosTrend, RedisSystem::kDilosAppAware};

// A fully wired Redis-lite instance on the requested system.
struct RedisEnv {
  Fabric fabric;
  std::unique_ptr<FarRuntime> rt;
  std::unique_ptr<RedisLite> redis;
  std::unique_ptr<RedisGuide> guide;

  // `attribution` enables per-fault critical-path attribution on the DiLOS
  // variants (ignored for Fastswap, which has no telemetry layer).
  RedisEnv(RedisSystem sys, uint64_t local_bytes, uint64_t expected_keys,
           bool attribution = false) {
    switch (sys) {
      case RedisSystem::kFastswap:
        rt = MakeFastswap(fabric, local_bytes);
        break;
      case RedisSystem::kDilosNone:
      case RedisSystem::kDilosAppAware:
        rt = MakeDilos(fabric, local_bytes, DilosVariant::kNoPrefetch, false, 1, 1, attribution);
        break;
      case RedisSystem::kDilosReadahead:
        rt = MakeDilos(fabric, local_bytes, DilosVariant::kReadahead, false, 1, 1, attribution);
        break;
      case RedisSystem::kDilosTrend:
        rt = MakeDilos(fabric, local_bytes, DilosVariant::kTrend, false, 1, 1, attribution);
        break;
    }
    redis = std::make_unique<RedisLite>(*rt, expected_keys);
    if (sys == RedisSystem::kDilosAppAware) {
      guide = std::make_unique<RedisGuide>(&redis->heap());
      redis->set_hooks(guide.get());
      static_cast<DilosRuntime*>(rt.get())->set_guide(guide.get());
    }
  }
};

}  // namespace dilos

#endif  // DILOS_BENCH_REDIS_COMMON_H_
