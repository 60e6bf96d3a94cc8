// Erasure coding for remote-memory redundancy (Carbink-style, the ROADMAP's
// "recover the capacity replication burns" item).
//
// Replication stores R full copies of every granule: R× remote capacity for
// tolerance of R-1 failures. A (k, m) code stripes k *data* granules across
// k distinct memory nodes and adds m *parity* granules on m further nodes;
// any m members may be lost and every lost member is recoverable from the
// surviving k — at (k+m)/k capacity instead of Nx.
//
// The code itself is Reed-Solomon over GF(2^8) with an identity-plus-Cauchy
// generator: parity p is
//     P_p[i] = XOR_j gmul(1 / ((k+p) ^ j), D_j[i]),   j = 0..k-1
// i.e. the parity block is the Cauchy matrix C[p][j] = (x_p ^ y_j)^-1 with
// x_p = k+p and y_j = j. Every square submatrix of a Cauchy matrix is
// nonsingular, so the code is MDS for *arbitrary* (k, m) with k+m <= 256:
// any m lost members are recoverable from any k survivors. (The previous
// identity-plus-Vandermonde rows were MDS only for m <= 2; Reconstruct()'s
// singularity check remains as a defense-in-depth guard.)
//
// XorMulInto, the one byte-crunching primitive (parity RMW, degraded read,
// repair and scrub all reach it), is a split-nibble kernel: multiplication
// by a fixed coefficient c is linear over GF(2), so c*s = c*(s & 15) ^
// c*(s & 0xF0), and each half is a lookup in a 16-entry table built once per
// coefficient. On a CPU with AVX2 one vpshufb does 32 such lookups at once;
// every other CPU first builds the coefficient's 256-entry product row from
// the same tables, then makes one lookup per byte. The CPU picks the
// path once at run time (__builtin_cpu_supports), not a build flag or a
// setting, so one binary is fast where it can be and correct everywhere.
// Both paths are byte-identical: test_ec checks each against GfMul for
// every coefficient, with lengths and offsets that reach the SIMD tail.
//
// ECCodec is pure arithmetic: no fabric, no router, no clock. Layout
// (which granule belongs to which stripe, which node holds which member)
// lives in ShardRouter; orchestration (who reads what when) lives in the
// runtime's degraded-read path, the cleaner's parity update, and the repair
// manager's rebuild loop.
#ifndef DILOS_SRC_RECOVERY_EC_H_
#define DILOS_SRC_RECOVERY_EC_H_

#include <cstddef>
#include <cstdint>

namespace dilos {

// Erasure-coding knob block consumed by DilosConfig / ShardRouter. When
// enabled it *replaces* replication: each granule has one data copy plus a
// share of m parity granules, instead of R full copies. Requires a fabric
// with at least k + m non-spare nodes (the router clamps k down if not).
struct ECConfig {
  bool enabled = false;
  int k = 4;  // Data granules per stripe.
  int m = 2;  // Parity granules per stripe (failures tolerated).
};

class ECCodec {
 public:
  ECCodec(int k, int m);

  int k() const { return k_; }
  int m() const { return m_; }

  // Generator-matrix coefficient of data member `j` (0..k-1) in stripe
  // member `member` (0..k+m-1). Data rows are the identity; parity row
  // k+p is the Cauchy row ((k+p) ^ j)^-1.
  uint8_t Coef(int member, int j) const;

  // dst[i] ^= gmul(coef, src[i]) for n bytes — the parity-update primitive:
  // with coef = Coef(k+p, j), folding (old ^ new) of data member j into
  // parity p keeps the stripe consistent without touching other members.
  // Runs the kernel XorMulKernel() names (see the file comment).
  static void XorMulInto(uint8_t* dst, const uint8_t* src, uint8_t coef, size_t n);
  // The same product through the portable row loop on any CPU, so tests
  // and benches reach it where XorMulInto would take the AVX2 path.
  static void XorMulIntoPortable(uint8_t* dst, const uint8_t* src, uint8_t coef, size_t n);
  // "avx2" or "portable": the kernel XorMulInto runs on this CPU.
  static const char* XorMulKernel();

  // Reconstructs stripe member `lost` (data or parity) from `count` >= k
  // surviving members: members[i] names the member index of blocks[i].
  // Returns false if the survivor set cannot determine the lost member
  // (fewer than k survivors, or a singular combination for m > 2).
  bool Reconstruct(int lost, const int* members, const uint8_t* const* blocks, int count,
                   uint8_t* out, size_t n) const;

  // GF(2^8) arithmetic (AES polynomial 0x11D), exposed for tests.
  static uint8_t GfMul(uint8_t a, uint8_t b);
  static uint8_t GfInv(uint8_t a);
  static uint8_t GfPow(uint8_t base, unsigned e);

 private:
  int k_;
  int m_;
};

}  // namespace dilos

#endif  // DILOS_SRC_RECOVERY_EC_H_
