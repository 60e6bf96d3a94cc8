// The benchmark's three closed-loop workloads.
//
// Each workload owns one simulated testbed (Fabric + DilosRuntime) and the
// application built on it, generates its op stream from the seed, executes
// ops on simulated core 0 with zero think time, and checks every result
// against a shadow it keeps on the host. A fresh Workload is built for every
// repetition, so the same seed replays the same simulated run exactly.
#ifndef DILOS_PERFBENCH_WORKLOADS_H_
#define DILOS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/spans.h"
#include "src/dilos/runtime.h"
#include "src/memnode/fabric.h"

namespace dilos::perfbench {

// One application op. `kind` indexes Workload::op_names(); `key` and `arg`
// are workload-specific (key index, payload index).
struct Op {
  uint32_t kind = 0;
  uint32_t arg = 0;
  uint64_t key = 0;
};

// Draws the op stream of one seed. Generation never consults the runtime, so
// the runtime receives only the generated ops.
class OpSource {
 public:
  virtual ~OpSource() = default;
  virtual Op Next() = 0;
};

// Layers a workload exercises, for marking per-layer metrics not applicable.
enum LayerBit : uint32_t {
  kLayerKv = 1,
  kLayerRedis = 2,
  kLayerGuides = 4,
  kLayerEc = 8,
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds the fabric, the runtime and the application. `traced` turns on
  // the runtime's metrics + attribution telemetry and puts the application
  // on a span-recording TracingRuntime.
  void Build(bool traced);
  // Loads the data set (the rest of set-up, before warm-up).
  virtual void Load() = 0;
  // Runs one op, then checks its result against the shadow.
  virtual void Exec(const Op& op) = 0;
  virtual bool Check(const Op& op) = 0;

  virtual std::unique_ptr<OpSource> Source(uint64_t seed) const = 0;
  virtual const std::vector<std::string>& op_names() const = 0;
  virtual uint64_t measured_ops() const = 0;
  // Ops per warm-up window (see RunWarmup in main.cc).
  virtual uint64_t warmup_window() const = 0;
  virtual uint32_t layers() const = 0;

  DilosRuntime& rt() { return *rt_; }
  Fabric& fabric() { return *fabric_; }
  TracingRuntime* tracing() { return tracing_.get(); }

 protected:
  virtual int nodes() const { return 1; }
  virtual DilosConfig Config() const = 0;
  virtual void BuildApp(FarRuntime& app) = 0;

 private:
  std::unique_ptr<Fabric> fabric_;
  std::unique_ptr<DilosRuntime> rt_;
  std::unique_ptr<TracingRuntime> tracing_;
};

// Null for an unknown name. `seed` also salts the loaded payloads.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace dilos::perfbench

#endif  // DILOS_PERFBENCH_WORKLOADS_H_
