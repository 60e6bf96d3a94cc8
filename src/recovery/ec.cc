#include "src/recovery/ec.h"

#include <array>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define DILOS_EC_X86 1
#endif

namespace dilos {

namespace {

// GF(2^8) log/antilog tables over the 0x11D polynomial, generator 2.
struct GfTables {
  std::array<uint8_t, 256> log{};
  std::array<uint8_t, 512> exp{};  // Doubled so exp[log a + log b] needs no mod.
  // Split-nibble product tables: nibble[c][x] = c*x and nibble[c][16 + x] =
  // c*(x << 4) for x in 0..15. Multiplication by c is linear over GF(2), so
  // c*s = nibble[c][s & 15] ^ nibble[c][16 + (s >> 4)] for every byte s.
  std::array<std::array<uint8_t, 32>, 256> nibble{};

  GfTables() {
    uint16_t x = 1;
    for (int i = 0; i < 255; ++i) {
      exp[static_cast<size_t>(i)] = static_cast<uint8_t>(x);
      log[static_cast<size_t>(x)] = static_cast<uint8_t>(i);
      x <<= 1;
      if (x & 0x100) {
        x ^= 0x11D;
      }
    }
    for (int i = 255; i < 512; ++i) {
      exp[static_cast<size_t>(i)] = exp[static_cast<size_t>(i - 255)];
    }
    for (size_t c = 1; c < 256; ++c) {
      for (size_t x = 1; x < 16; ++x) {
        nibble[c][x] = exp[static_cast<size_t>(log[c]) + log[x]];
        nibble[c][16 + x] = exp[static_cast<size_t>(log[c]) + log[x << 4]];
      }
    }
  }
};

const GfTables& Tables() {
  static const GfTables t;
  return t;
}

// Two nibble lookups per byte: the AVX2 kernel's tail of fewer than 32 bytes.
void XorMulBytes(uint8_t* dst, const uint8_t* src, const uint8_t* nib, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    dst[i] ^= static_cast<uint8_t>(nib[src[i] & 15] ^ nib[16 + (src[i] >> 4)]);
  }
}

// The portable kernel: the coefficient's 256-entry product row, built from
// the same nibble tables once per call, then one lookup per byte.
void XorMulRow(uint8_t* dst, const uint8_t* src, const uint8_t* nib, size_t n) {
  uint8_t row[256] = {};
  for (size_t s = 0; s < 256; ++s) {
    row[s] = static_cast<uint8_t>(nib[s & 15] ^ nib[16 + (s >> 4)]);
  }
  for (size_t i = 0; i < n; ++i) {
    dst[i] ^= row[src[i]];
  }
}

#ifdef DILOS_EC_X86
// 32 bytes per step: vpshufb looks each source nibble up in the 16-entry
// table held in both 128-bit lanes.
__attribute__((target("avx2"))) void XorMulAvx2(uint8_t* dst, const uint8_t* src,
                                                const uint8_t* nib, size_t n) {
  const __m256i lo =
      _mm256_broadcastsi128_si256(_mm_loadu_si128(reinterpret_cast<const __m128i*>(nib)));
  const __m256i hi =
      _mm256_broadcastsi128_si256(_mm_loadu_si128(reinterpret_cast<const __m128i*>(nib + 16)));
  const __m256i mask = _mm256_set1_epi8(0x0F);
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i s = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    __m256i d = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    __m256i p = _mm256_xor_si256(
        _mm256_shuffle_epi8(lo, _mm256_and_si256(s, mask)),
        _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64(s, 4), mask)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), _mm256_xor_si256(d, p));
  }
  XorMulBytes(dst + i, src + i, nib, n - i);
}
#endif

using XorMulKernelFn = void (*)(uint8_t*, const uint8_t*, const uint8_t*, size_t);

struct XorMulDispatch {
  XorMulKernelFn fn = XorMulRow;
  const char* name = "portable";

  XorMulDispatch() {
#ifdef DILOS_EC_X86
    __builtin_cpu_init();  // Needed if first called from a static constructor.
    if (__builtin_cpu_supports("avx2")) {
      fn = XorMulAvx2;
      name = "avx2";
    }
#endif
  }
};

const XorMulDispatch& Dispatch() {
  static const XorMulDispatch d;
  return d;
}

}  // namespace

uint8_t ECCodec::GfMul(uint8_t a, uint8_t b) {
  if (a == 0 || b == 0) {
    return 0;
  }
  const GfTables& t = Tables();
  return t.exp[static_cast<size_t>(t.log[a]) + static_cast<size_t>(t.log[b])];
}

uint8_t ECCodec::GfInv(uint8_t a) {
  const GfTables& t = Tables();
  return t.exp[static_cast<size_t>(255 - t.log[a])];
}

uint8_t ECCodec::GfPow(uint8_t base, unsigned e) {
  if (base == 0) {
    return 0;
  }
  const GfTables& t = Tables();
  return t.exp[(static_cast<size_t>(t.log[base]) * e) % 255];
}

ECCodec::ECCodec(int k, int m) : k_(k < 1 ? 1 : k), m_(m < 0 ? 0 : m) {}

uint8_t ECCodec::Coef(int member, int j) const {
  if (member < k_) {
    return member == j ? 1 : 0;  // Data rows: identity.
  }
  // Cauchy rows: coef(k+p, j) = 1 / (x_p ^ y_j) with x_p = k+p, y_j = j.
  // The x's and y's are distinct and disjoint (j < k <= member), so the
  // denominator is never zero and every square submatrix of the Cauchy
  // block is nonsingular — the code is MDS for any (k, m) with k+m <= 256,
  // unlike the identity-plus-Vandermonde construction it replaces (MDS only
  // for m <= 2).
  return GfInv(static_cast<uint8_t>(member ^ j));
}

void ECCodec::XorMulInto(uint8_t* dst, const uint8_t* src, uint8_t coef, size_t n) {
  if (coef != 0) {
    Dispatch().fn(dst, src, Tables().nibble[coef].data(), n);
  }
}

void ECCodec::XorMulIntoPortable(uint8_t* dst, const uint8_t* src, uint8_t coef, size_t n) {
  XorMulRow(dst, src, Tables().nibble[coef].data(), n);
}

const char* ECCodec::XorMulKernel() { return Dispatch().name; }

bool ECCodec::Reconstruct(int lost, const int* members, const uint8_t* const* blocks,
                          int count, uint8_t* out, size_t n) const {
  if (count < k_) {
    return false;
  }
  int k = k_;
  // A (k x k) system from the first k survivor rows of the generator matrix;
  // Gauss-Jordan gives A^-1, then c = row(lost) * A^-1 are the combination
  // coefficients of the survivor *values* that equal the lost member.
  std::vector<uint8_t> a(static_cast<size_t>(k * k));
  std::vector<uint8_t> inv(static_cast<size_t>(k * k), 0);
  for (int r = 0; r < k; ++r) {
    for (int c = 0; c < k; ++c) {
      a[static_cast<size_t>(r * k + c)] = Coef(members[r], c);
    }
    inv[static_cast<size_t>(r * k + r)] = 1;
  }
  for (int col = 0; col < k; ++col) {
    int pivot = -1;
    for (int r = col; r < k; ++r) {
      if (a[static_cast<size_t>(r * k + col)] != 0) {
        pivot = r;
        break;
      }
    }
    if (pivot < 0) {
      return false;  // Singular survivor combination (possible only for m > 2).
    }
    if (pivot != col) {
      for (int c = 0; c < k; ++c) {
        std::swap(a[static_cast<size_t>(pivot * k + c)], a[static_cast<size_t>(col * k + c)]);
        std::swap(inv[static_cast<size_t>(pivot * k + c)],
                  inv[static_cast<size_t>(col * k + c)]);
      }
    }
    uint8_t d = GfInv(a[static_cast<size_t>(col * k + col)]);
    for (int c = 0; c < k; ++c) {
      a[static_cast<size_t>(col * k + c)] = GfMul(a[static_cast<size_t>(col * k + c)], d);
      inv[static_cast<size_t>(col * k + c)] = GfMul(inv[static_cast<size_t>(col * k + c)], d);
    }
    for (int r = 0; r < k; ++r) {
      if (r == col) {
        continue;
      }
      uint8_t f = a[static_cast<size_t>(r * k + col)];
      if (f == 0) {
        continue;
      }
      for (int c = 0; c < k; ++c) {
        a[static_cast<size_t>(r * k + c)] ^=
            GfMul(f, a[static_cast<size_t>(col * k + c)]);
        inv[static_cast<size_t>(r * k + c)] ^=
            GfMul(f, inv[static_cast<size_t>(col * k + c)]);
      }
    }
  }
  // c_i = sum_j Coef(lost, j) * inv[j][i].
  std::vector<uint8_t> comb(static_cast<size_t>(k), 0);
  for (int i = 0; i < k; ++i) {
    uint8_t acc = 0;
    for (int j = 0; j < k; ++j) {
      acc ^= GfMul(Coef(lost, j), inv[static_cast<size_t>(j * k + i)]);
    }
    comb[static_cast<size_t>(i)] = acc;
  }
  for (size_t i = 0; i < n; ++i) {
    out[i] = 0;
  }
  for (int i = 0; i < k; ++i) {
    XorMulInto(out, blocks[i], comb[static_cast<size_t>(i)], n);
  }
  return true;
}

}  // namespace dilos
