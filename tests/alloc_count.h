// Counting replacements of the global operator new and delete: every global
// allocation in a binary that includes this header adds one to
// g_allocations, so a test can bound the allocations an operation makes.
//
// The replacements are definitions, so exactly one source file of a test
// binary may include this header. The counter is a plain integer: the
// binaries that use it are single-threaded. None of the replacements is
// inlined: GCC would otherwise see malloc() paired with operator delete, or
// operator new with free(), at the call sites and warn
// (-Wmismatched-new-delete) about the replacement itself.
#ifndef DILOS_TESTS_ALLOC_COUNT_H_
#define DILOS_TESTS_ALLOC_COUNT_H_

#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
uint64_t g_allocations = 0;

void* CountedAlloc(std::size_t n) {
  ++g_allocations;
  return std::malloc(n == 0 ? 1 : n);
}
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t n) {
  if (void* p = CountedAlloc(n)) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

#endif  // DILOS_TESTS_ALLOC_COUNT_H_
