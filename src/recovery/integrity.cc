#include "src/recovery/integrity.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define DILOS_CHECKSUM_X86 1
#endif

namespace dilos {

namespace {

// Word i of a page feeds lane i mod kLanes; both kernels keep 16 lanes (the
// AVX2 one as four vectors of four).
constexpr uint32_t kLanes = 16;
constexpr uint64_t kBasis = 0xCBF29CE484222325ULL;
constexpr uint64_t kLaneSpread = 0x9E3779B97F4A7C15ULL;
// The multiplier is odd, so multiplying is a bijection of the lane, and it
// factors as (1 + 2^7)(1 + 2^23): two shift-adds in a vector register (AVX2
// has no 64-bit multiply), one imul in a scalar one.
constexpr int kShiftA = 7;
constexpr int kShiftB = 23;
constexpr uint64_t kMul = (1ULL + (1ULL << kShiftA)) * (1ULL + (1ULL << kShiftB));
constexpr int kXorShift = 29;

// Each lane starts from its own value: the fold step is symmetric in its two
// inputs, so lanes that started equal could trade words unnoticed.
constexpr uint64_t LaneBasis(uint32_t lane) { return kBasis + lane * kLaneSpread; }

// One lane step: xor in a word, multiply by the odd constant, xor-shift.
// Each part is a bijection of `h` for a fixed `w`, and the xor makes the
// result differ for any two words.
inline uint64_t Step(uint64_t h, uint64_t w) {
  h = (h ^ w) * kMul;
  return h ^ (h >> kXorShift);
}

// The last fold: the four lanes left once lane j has absorbed lanes j+4,
// j+8 and j+12 (in the AVX2 kernel, one vector step per accumulator).
uint64_t FoldFour(const uint64_t* v) { return Step(Step(Step(v[0], v[1]), v[2]), v[3]); }

// Eight lanes at a time, in two passes over the page: eight independent
// multiply chains keep a scalar core busy without spilling registers.
uint64_t ChecksumPortable(const uint8_t* data) {
  uint64_t lanes[kLanes] = {};
  for (uint32_t first = 0; first < kLanes; first += 8) {
    uint64_t h[8] = {};
#pragma GCC unroll 8
    for (uint32_t j = 0; j < 8; ++j) {
      h[j] = LaneBasis(first + j);
    }
    for (uint32_t i = first * 8; i < kPageSize; i += kLanes * 8) {
#pragma GCC unroll 8
      for (uint32_t j = 0; j < 8; ++j) {
        uint64_t w = 0;
        std::memcpy(&w, data + i + 8 * j, 8);
        h[j] = Step(h[j], w);
      }
    }
    std::memcpy(lanes + first, h, sizeof(h));
  }
  uint64_t v[4] = {};
  for (uint32_t j = 0; j < 4; ++j) {
    v[j] = Step(Step(Step(lanes[j], lanes[4 + j]), lanes[8 + j]), lanes[12 + j]);
  }
  return FoldFour(v);
}

#ifdef DILOS_CHECKSUM_X86
__attribute__((target("avx2"))) inline __m256i StepAvx2(__m256i h, __m256i w) {
  h = _mm256_xor_si256(h, w);
  h = _mm256_add_epi64(h, _mm256_slli_epi64(h, kShiftA));
  h = _mm256_add_epi64(h, _mm256_slli_epi64(h, kShiftB));
  return _mm256_xor_si256(h, _mm256_srli_epi64(h, kXorShift));
}

__attribute__((target("avx2"))) inline __m256i BasisAvx2(uint32_t first) {
  return _mm256_setr_epi64x(static_cast<long long>(LaneBasis(first)),
                            static_cast<long long>(LaneBasis(first + 1)),
                            static_cast<long long>(LaneBasis(first + 2)),
                            static_cast<long long>(LaneBasis(first + 3)));
}

__attribute__((target("avx2"))) inline __m256i LoadAvx2(const uint8_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

// 128 bytes per step: four accumulators of four 64-bit lanes each.
__attribute__((target("avx2"))) uint64_t ChecksumAvx2(const uint8_t* data) {
  __m256i a = BasisAvx2(0), b = BasisAvx2(4), c = BasisAvx2(8), d = BasisAvx2(12);
  for (uint32_t i = 0; i < kPageSize; i += kLanes * 8) {
    a = StepAvx2(a, LoadAvx2(data + i));
    b = StepAvx2(b, LoadAvx2(data + i + 32));
    c = StepAvx2(c, LoadAvx2(data + i + 64));
    d = StepAvx2(d, LoadAvx2(data + i + 96));
  }
  uint64_t v[4] = {};
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(v), StepAvx2(StepAvx2(StepAvx2(a, b), c), d));
  return FoldFour(v);
}
#endif

struct ChecksumDispatch {
  uint64_t (*fn)(const uint8_t*) = ChecksumPortable;
  const char* name = "portable";

  ChecksumDispatch() {
#ifdef DILOS_CHECKSUM_X86
    __builtin_cpu_init();  // Needed if first called from a static constructor.
    if (__builtin_cpu_supports("avx2")) {
      fn = ChecksumAvx2;
      name = "avx2";
    }
#endif
  }
};

const ChecksumDispatch& Dispatch() {
  static const ChecksumDispatch d;
  return d;
}

}  // namespace

uint64_t PageChecksum(const uint8_t* data) { return Dispatch().fn(data); }

uint64_t PageChecksumPortable(const uint8_t* data) { return ChecksumPortable(data); }

const char* PageChecksumKernel() { return Dispatch().name; }

CopyVerdict JudgeBytes(const StoredPage* rec, const uint8_t* bytes, uint32_t expected_gen) {
  if (bytes != nullptr) {
    bool intact = rec == nullptr ? std::memcmp(bytes, PageStore::ZeroPage(), kPageSize) == 0
                                 : !rec->has_checksum || PageChecksum(bytes) == rec->checksum;
    if (!intact) {
      return CopyVerdict::kCorrupt;
    }
  }
  return CopyIsCurrent(rec, expected_gen) ? CopyVerdict::kFresh : CopyVerdict::kStale;
}

CopyVerdict JudgeCopy(const PageStore& store, int node, uint64_t page_va, const uint8_t* bytes,
                      uint32_t expected_gen, uint64_t at_ns, RuntimeStats& stats,
                      Tracer* tracer) {
  CopyVerdict v = JudgeBytes(store.Find(page_va >> kPageShift), bytes, expected_gen);
  if (v == CopyVerdict::kCorrupt) {
    stats.checksum_mismatches++;
    if (tracer != nullptr) {
      tracer->Record(at_ns, TraceEvent::kChecksumMismatch, page_va, /*detail=*/0);
    }
  } else if (v == CopyVerdict::kStale) {
    stats.stale_copies_detected++;
    if (tracer != nullptr) {
      tracer->Record(at_ns, TraceEvent::kStaleCopy, page_va, static_cast<uint32_t>(node));
    }
  }
  return v;
}

}  // namespace dilos
