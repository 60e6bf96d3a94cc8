#include "perfbench/workloads.h"

#include <algorithm>
#include <cstring>

#include "bench/common.h"
#include "src/guides/redis_guide.h"
#include "src/kv/kv_service.h"
#include "src/redis/redis.h"

namespace dilos::perfbench {

namespace {

// Order-sensitive 64-bit fingerprint of a payload: the shadow keeps these
// instead of whole values for the large Redis payloads.
uint64_t Fingerprint(const char* data, size_t len) {
  uint64_t h = 0x243F6A8885A308D3ULL ^ len;
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    uint64_t w;
    std::memcpy(&w, data + i, 8);
    h = (h ^ w) * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
  }
  for (; i < len; ++i) {
    h = (h ^ static_cast<uint8_t>(data[i])) * 0x100000001B3ULL;
  }
  return h;
}

uint64_t Fingerprint(const std::string& s) { return Fingerprint(s.data(), s.size()); }

uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

// Op kinds in seeded, shuffled blocks that each hold the exact mix, so the
// mix does not drift with the sample (the keys stay independent draws).
class BlockMix {
 public:
  BlockMix(std::vector<uint32_t> block, uint64_t seed) : block_(std::move(block)), rng_(seed) {}

  uint32_t Next() {
    if (pos_ == block_.size()) {
      for (size_t i = block_.size(); i > 1; --i) {
        std::swap(block_[i - 1], block_[rng_.NextBelow(i)]);
      }
      pos_ = 0;
    }
    return block_[pos_++];
  }

 private:
  std::vector<uint32_t> block_;
  size_t pos_ = block_.size();
  Rng rng_;
};

// ---- reread ------------------------------------------------------------------
//
// A region written once in set-up, then uniform random 8-byte reads with 25%
// of it in local DRAM: the demand-fault path with nothing else running.

constexpr uint64_t kRereadRegionBytes = 64ULL << 20;
constexpr uint64_t kRereadWords = kRereadRegionBytes / 8;

class Reread : public Workload {
 public:
  explicit Reread(uint64_t seed) : salt_(Mix64(seed)) {}

  void Load() override {
    base_ = app_->AllocRegion(kRereadRegionBytes);
    std::vector<uint64_t> page(kPageSize / 8);
    for (uint64_t p = 0; p < kRereadRegionBytes / kPageSize; ++p) {
      for (uint64_t w = 0; w < page.size(); ++w) {
        page[w] = Expected(p * page.size() + w);
      }
      app_->WriteBytes(base_ + p * kPageSize, page.data(), kPageSize);
    }
  }
  void Exec(const Op& op) override { value_ = app_->Read<uint64_t>(base_ + op.key * 8); }
  bool Check(const Op& op) override { return value_ == Expected(op.key); }

  std::unique_ptr<OpSource> Source(uint64_t seed) const override {
    struct Src : OpSource {
      explicit Src(uint64_t s) : keys(KeyDist::kUniform, kRereadWords, s) {}
      Op Next() override { return Op{0, 0, keys.Next()}; }
      KeyChooser keys;
    };
    return std::make_unique<Src>(seed);
  }
  const std::vector<std::string>& op_names() const override {
    static const std::vector<std::string> kNames = {"read"};
    return kNames;
  }
  uint64_t measured_ops() const override { return 60'000; }
  uint64_t warmup_window() const override { return 4'096; }
  uint32_t layers() const override { return 0; }

 protected:
  DilosConfig Config() const override {
    DilosConfig cfg;
    cfg.local_mem_bytes = kRereadRegionBytes / 4;
    return cfg;
  }
  void BuildApp(FarRuntime& app) override { app_ = &app; }

 private:
  uint64_t Expected(uint64_t word) const { return Mix64(word ^ salt_); }

  uint64_t salt_;
  FarRuntime* app_ = nullptr;
  uint64_t base_ = 0;
  uint64_t value_ = 0;
};

// ---- kv-update ---------------------------------------------------------------
//
// YCSB-A (50% Get / 50% Put, Zipfian 0.99, 256 B values) on a 4-shard
// KvService, local DRAM at 25% of the leaf data, EC (4, 2) over 6 nodes.

constexpr uint64_t kKvRecords = 40'000;
constexpr uint32_t kKvValueSize = 256;
constexpr uint32_t kKvPayloads = 4'096;  // Distinct values a Put can write.

class KvUpdate : public Workload {
 public:
  explicit KvUpdate(uint64_t seed) {
    payloads_.reserve(kKvPayloads);
    for (uint32_t j = 0; j < kKvPayloads; ++j) {
      payloads_.push_back(BenchValue(kKvValueSize, (seed << 16) + j));
    }
    shadow_.resize(kKvRecords);
  }

  void Load() override {
    // Sequential keys, as bench_ycsb loads them.
    for (uint64_t i = 0; i < kKvRecords; ++i) {
      shadow_[i] = static_cast<uint32_t>(i % kKvPayloads);
      kv_->Put(i, payloads_[shadow_[i]]);
    }
  }
  void Exec(const Op& op) override {
    if (op.kind == kGet) {
      ok_ = kv_->Get(op.key, &out_);
    } else {
      ok_ = !kv_->Put(op.key, payloads_[op.arg]);  // Every key exists: an update.
      shadow_[op.key] = op.arg;
    }
  }
  bool Check(const Op& op) override {
    return ok_ && (op.kind != kGet || out_ == payloads_[shadow_[op.key]]);
  }

  std::unique_ptr<OpSource> Source(uint64_t seed) const override {
    struct Src : OpSource {
      explicit Src(uint64_t s)
          : keys(KeyDist::kZipfian, kKvRecords, s),
            mix({kGet, kGet, kGet, kGet, kPut, kPut, kPut, kPut}, s ^ 0xB10C),
            rng(s ^ 0xA11CE) {}
      Op Next() override {
        uint64_t key = keys.Next();
        if (mix.Next() == kGet) {
          return Op{kGet, 0, key};
        }
        return Op{kPut, static_cast<uint32_t>(rng.NextBelow(kKvPayloads)), key};
      }
      KeyChooser keys;
      BlockMix mix;
      Rng rng;
    };
    return std::make_unique<Src>(seed);
  }
  const std::vector<std::string>& op_names() const override {
    static const std::vector<std::string> kNames = {"get", "put"};
    return kNames;
  }
  uint64_t measured_ops() const override { return 200'000; }
  uint64_t warmup_window() const override { return 8'192; }
  uint32_t layers() const override { return kLayerKv | kLayerEc; }

 protected:
  int nodes() const override { return 6; }
  DilosConfig Config() const override {
    uint32_t leaf_cap = (kPageSize - 16) / (8 + kKvValueSize);
    uint64_t data_pages = kKvRecords / leaf_cap + 128;
    DilosConfig cfg;
    cfg.local_mem_bytes = data_pages * kPageSize / 4;
    cfg.ec.enabled = true;
    cfg.ec.k = 4;
    cfg.ec.m = 2;
    return cfg;
  }
  void BuildApp(FarRuntime& app) override {
    KvConfig kcfg;
    kcfg.shards = 4;
    kcfg.tree.value_size = kKvValueSize;
    kv_ = std::make_unique<KvService>(app, kcfg, &rt().tracer());
  }

 private:
  static constexpr uint32_t kGet = 0;
  static constexpr uint32_t kPut = 1;

  std::vector<std::string> payloads_;
  std::vector<uint32_t> shadow_;  // Key -> payload index of its last write.
  std::unique_ptr<KvService> kv_;
  std::string out_;
  bool ok_ = false;
};

// ---- redis-guided ------------------------------------------------------------
//
// Redis-lite with the app-aware RedisGuide (allocator-guided paging on) at 25%
// local: GETs of photo-mix values, LRANGE_100 over quicklists, and SET/DEL
// churn of 128 B values that fragments heap pages.

constexpr uint64_t kPhotoKeys = 512;
constexpr uint64_t kLists = 512;
constexpr uint64_t kListElems = kLists * 200;
constexpr uint32_t kListElemSize = 90;
constexpr uint32_t kLrangeCount = 100;
constexpr uint64_t kSmallKeys = 16'384;
constexpr uint32_t kSmallValueSize = 128;
constexpr uint32_t kSmallPayloads = 1'024;

class RedisGuided : public Workload {
 public:
  explicit RedisGuided(uint64_t seed) : seed_(seed) {
    for (uint64_t i = 0; i < kPhotoKeys; ++i) {
      photo_names_.push_back(BenchKeyName(i));
    }
    for (uint64_t l = 0; l < kLists; ++l) {
      list_names_.push_back("list:" + BenchKeyName(l));
    }
    for (uint64_t s = 0; s < kSmallKeys; ++s) {
      small_names_.push_back("small:" + BenchKeyName(s));
    }
    for (uint32_t j = 0; j < kSmallPayloads; ++j) {
      small_payloads_.push_back(BenchValue(kSmallValueSize, (seed << 20) + j));
    }
  }
  ~RedisGuided() override {
    // The runtime outlives the application objects; unhook the guide first.
    if (guide_ != nullptr) {
      rt().set_guide(nullptr);
    }
  }

  void Load() override {
    const std::vector<uint32_t>& sizes = PhotoMixSizes();
    photo_fp_.resize(kPhotoKeys);
    for (uint64_t i = 0; i < kPhotoKeys; ++i) {
      std::string v = BenchValue(sizes[i % sizes.size()], Mix64(seed_ ^ i));
      photo_fp_[i] = Fingerprint(v);
      redis_->Set(photo_names_[i], v);
    }
    // Elements land on random lists so quicklist nodes interleave across
    // heap pages, as in the Fig. 10 LRANGE bench.
    Rng rng(seed_ ^ 0x11575);
    list_fp_.assign(kLists, {});
    for (uint64_t e = 0; e < kListElems; ++e) {
      uint64_t l = rng.NextBelow(kLists);
      std::string v = BenchValue(kListElemSize, Mix64(seed_ + e));
      if (list_fp_[l].size() < kLrangeCount) {
        list_fp_[l].push_back(Fingerprint(v));
      }
      redis_->Rpush(list_names_[l], v);
    }
    present_.assign(kSmallKeys, 1);
    for (uint64_t s = 0; s < kSmallKeys; ++s) {
      redis_->Set(small_names_[s], small_payloads_[s % kSmallPayloads]);
    }
  }

  void Exec(const Op& op) override {
    switch (op.kind) {
      case kGet:
        ok_ = redis_->Get(photo_names_[op.key], &out_);
        break;
      case kLrange:
        out_list_.clear();
        emitted_ = redis_->Lrange(list_names_[op.key], 0, kLrangeCount, &out_list_);
        break;
      case kSet:
        redis_->Set(small_names_[op.key], small_payloads_[op.arg]);
        present_[op.key] = 1;
        break;
      default:
        ok_ = redis_->Del(small_names_[op.key]) == (present_[op.key] != 0);
        present_[op.key] = 0;
        break;
    }
  }
  bool Check(const Op& op) override {
    switch (op.kind) {
      case kGet:
        return ok_ && Fingerprint(out_) == photo_fp_[op.key];
      case kLrange: {
        const std::vector<uint64_t>& want = list_fp_[op.key];
        if (emitted_ != want.size() || out_list_.size() != want.size()) {
          return false;
        }
        for (size_t i = 0; i < want.size(); ++i) {
          if (Fingerprint(out_list_[i]) != want[i]) {
            return false;
          }
        }
        return true;
      }
      case kSet:
        return true;  // SET has no reply to check; DELs check its effect.
      default:
        return ok_;
    }
  }

  std::unique_ptr<OpSource> Source(uint64_t seed) const override {
    struct Src : OpSource {
      explicit Src(uint64_t s)
          : photos(KeyDist::kUniform, kPhotoKeys, s),
            lists(KeyDist::kUniform, kLists, s ^ 0x1157),
            smalls(KeyDist::kUniform, kSmallKeys, s ^ 0x5A11),
            mix(MixBlock(), s ^ 0xB10C),
            rng(s ^ 0x3E7) {}
      // 40% GET, 30% LRANGE, 15% SET, 15% DEL.
      static std::vector<uint32_t> MixBlock() {
        std::vector<uint32_t> b;
        b.insert(b.end(), 8, kGet);
        b.insert(b.end(), 6, kLrange);
        b.insert(b.end(), 3, kSet);
        b.insert(b.end(), 3, kDel);
        return b;
      }
      Op Next() override {
        switch (mix.Next()) {
          case kGet:
            return Op{kGet, 0, photos.Next()};
          case kLrange:
            return Op{kLrange, 0, lists.Next()};
          case kSet:
            return Op{kSet, static_cast<uint32_t>(rng.NextBelow(kSmallPayloads)),
                      smalls.Next()};
          default:
            return Op{kDel, 0, smalls.Next()};
        }
      }
      KeyChooser photos;
      KeyChooser lists;
      KeyChooser smalls;
      BlockMix mix;
      Rng rng;
    };
    return std::make_unique<Src>(seed);
  }
  const std::vector<std::string>& op_names() const override {
    static const std::vector<std::string> kNames = {"get", "lrange", "set", "del"};
    return kNames;
  }
  uint64_t measured_ops() const override { return 20'000; }
  uint64_t warmup_window() const override { return 2'048; }
  uint32_t layers() const override { return kLayerRedis | kLayerGuides; }

 protected:
  DilosConfig Config() const override {
    // Heap footprint: photo payloads, ~32 list elements per ziplist page plus
    // node/dict overhead, and the small keys with their dict entries.
    uint64_t photo_bytes = 0;
    for (uint64_t i = 0; i < kPhotoKeys; ++i) {
      photo_bytes += PhotoMixSizes()[i % PhotoMixSizes().size()];
    }
    uint64_t list_bytes = (kListElems / 32) * kPageSize + kListElems * 8;
    uint64_t small_bytes = kSmallKeys * (kSmallValueSize + 64);
    DilosConfig cfg;
    cfg.local_mem_bytes = (photo_bytes + list_bytes + small_bytes) / 4;
    return cfg;
  }
  void BuildApp(FarRuntime& app) override {
    redis_ = std::make_unique<RedisLite>(app, kPhotoKeys + kLists + kSmallKeys);
    guide_ = std::make_unique<RedisGuide>(&redis_->heap());
    redis_->set_hooks(guide_.get());
    rt().set_guide(guide_.get());
  }

 private:
  static constexpr uint32_t kGet = 0;
  static constexpr uint32_t kLrange = 1;
  static constexpr uint32_t kSet = 2;
  static constexpr uint32_t kDel = 3;

  uint64_t seed_;
  std::vector<std::string> photo_names_;
  std::vector<std::string> list_names_;
  std::vector<std::string> small_names_;
  std::vector<std::string> small_payloads_;
  std::vector<uint64_t> photo_fp_;
  std::vector<std::vector<uint64_t>> list_fp_;  // First kLrangeCount elements.
  std::vector<uint8_t> present_;
  std::unique_ptr<RedisLite> redis_;
  std::unique_ptr<RedisGuide> guide_;
  std::string out_;
  std::vector<std::string> out_list_;
  uint32_t emitted_ = 0;
  bool ok_ = false;
};

}  // namespace

void Workload::Build(bool traced) {
  DilosConfig cfg = Config();
  cfg.telemetry.metrics = traced;
  cfg.telemetry.attribution = traced;
  fabric_ = std::make_unique<Fabric>(CostModel::Default(), nodes());
  rt_ = std::make_unique<DilosRuntime>(*fabric_, cfg, std::make_unique<NullPrefetcher>());
  if (traced) {
    tracing_ = std::make_unique<TracingRuntime>(*rt_);
    BuildApp(*tracing_);
  } else {
    BuildApp(*rt_);
  }
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "reread") {
    return std::make_unique<Reread>(seed);
  }
  if (name == "kv-update") {
    return std::make_unique<KvUpdate>(seed);
  }
  if (name == "redis-guided") {
    return std::make_unique<RedisGuided>(seed);
  }
  return nullptr;
}

}  // namespace dilos::perfbench
