// DiLOS communication module channels (paper Sec. 4.5).
//
// Shared-nothing queue assignment: each (core, module) pair gets its own
// queue pair so a fault-handler demand fetch is never head-of-line blocked
// behind prefetcher, manager, or guide traffic in software. (All QPs still
// share the physical wire; Link arbitrates that.) ShardRouter
// (src/dilos/shard.h) owns the queue pairs, one per (core, channel, node).
#ifndef DILOS_SRC_DILOS_COMM_H_
#define DILOS_SRC_DILOS_COMM_H_

#include <cstddef>
#include <iterator>

#include "src/memnode/fabric.h"

namespace dilos {

enum class CommChannel : uint8_t {
  kFault = 0,
  kPrefetch,
  kManager,
  kGuide,
  kCount,
};

// Telemetry label for a channel's QPs (src/telemetry/metrics.h). kManager
// maps to "cleaner" — write-back/parity/scrub traffic, named for its
// dominant producer.
inline QpClass QpClassForChannel(CommChannel ch) {
  constexpr QpClass kClass[] = {QpClass::kFault, QpClass::kPrefetch, QpClass::kCleaner,
                                QpClass::kGuide};
  static_assert(std::size(kClass) == static_cast<size_t>(CommChannel::kCount));
  return kClass[static_cast<size_t>(ch)];
}

}  // namespace dilos

#endif  // DILOS_SRC_DILOS_COMM_H_
