// Whole-binary operator new/delete replacement that counts every heap
// allocation on any thread, for tests asserting that a warmed steady state
// never touches the allocator. The replacements are ordinary (non-inline)
// definitions, so include this header from exactly one source file of a
// test binary.
//
// Measure a window with no EXPECTs inside it (gtest allocates when it
// records a failure): read allocation_count() before and after the window,
// then assert on the difference.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace qsa::test {

inline std::atomic<std::uint64_t> g_news{0};

/// Heap allocations made so far by this binary.
inline std::uint64_t allocation_count() { return g_news.load(); }

}  // namespace qsa::test

void* operator new(std::size_t n) {
  ++qsa::test::g_news;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  ++qsa::test::g_news;
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), n ? n : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
// GCC 12 at -O3 sometimes inlines a std::vector's whole round trip —
// allocation through this replaced malloc-backed operator new, release
// through the sized delete below — and then reports the intentional
// malloc/free pairing as -Wmismatched-new-delete. Replaced global
// new/delete are matched by definition; silence the false positive at
// the definitions it is attributed to.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop
