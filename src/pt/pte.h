// PTE encoding for the unified page table (paper Sec. 4.1, Fig. 4).
//
// PTEs follow the x86-64 hardware layout. DiLOS distinguishes its tags
// with the low ignored/software bits (present, write, user, plus a
// software bit for the compressed tier):
//
//   present=1           -> kLocal    (bits 12.. hold the local frame number)
//   P=0, W=1, U=0       -> kRemote   (bits 12.. hold the remote page number)
//   P=0, W=0, U=1       -> kFetching (bits 12.. hold the frame being filled)
//   P=0, W=1, U=1       -> kAction   (bits 12.. hold guide-defined data)
//   P=0, SW3=1          -> kTier     (page lives in the compressed local
//                                     tier; bits 12.. hold the page number)
//   all zero            -> kEmpty    (never-materialized page: zero-fill)
#ifndef DILOS_SRC_PT_PTE_H_
#define DILOS_SRC_PT_PTE_H_

#include <cstdint>

namespace dilos {

using Pte = uint64_t;

inline constexpr Pte kPtePresent = 1ULL << 0;
inline constexpr Pte kPteWrite = 1ULL << 1;
inline constexpr Pte kPteUser = 1ULL << 2;
// Software bit (PWT in hardware, ignored for non-present PTEs): the page's
// content sits compressed in the local tier (src/tier), not remotely.
inline constexpr Pte kPteTier = 1ULL << 3;
inline constexpr Pte kPteAccessed = 1ULL << 5;
inline constexpr Pte kPteDirty = 1ULL << 6;
inline constexpr uint32_t kPtePayloadShift = 12;

enum class PteTag : uint8_t {
  kEmpty,
  kLocal,
  kRemote,
  kFetching,
  kAction,
  kTier,
};

inline PteTag PteTagOf(Pte pte) {
  if (pte & kPtePresent) {
    return PteTag::kLocal;
  }
  if (pte & kPteTier) {
    return PteTag::kTier;
  }
  bool w = (pte & kPteWrite) != 0;
  bool u = (pte & kPteUser) != 0;
  if (w && u) {
    return PteTag::kAction;
  }
  if (w) {
    return PteTag::kRemote;
  }
  if (u) {
    return PteTag::kFetching;
  }
  return PteTag::kEmpty;
}

inline uint64_t PtePayload(Pte pte) { return pte >> kPtePayloadShift; }

inline Pte MakeLocalPte(uint64_t frame, bool writable) {
  return (frame << kPtePayloadShift) | kPtePresent | kPteUser | (writable ? kPteWrite : 0);
}
inline Pte MakeRemotePte(uint64_t remote_page) {
  return (remote_page << kPtePayloadShift) | kPteWrite;
}
inline Pte MakeFetchingPte(uint64_t frame) {
  return (frame << kPtePayloadShift) | kPteUser;
}
inline Pte MakeActionPte(uint64_t data) {
  return (data << kPtePayloadShift) | kPteWrite | kPteUser;
}
inline Pte MakeTierPte(uint64_t remote_page) {
  return (remote_page << kPtePayloadShift) | kPteTier;
}

}  // namespace dilos

#endif  // DILOS_SRC_PT_PTE_H_
