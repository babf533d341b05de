#include "alloc_count.hpp"

#include <cstdlib>
#include <new>

namespace {

// The benchmark runs on one thread; a plain counter keeps the hook as
// cheap as the allocation it counts.
std::uint64_t g_allocs = 0;

void* counted_alloc(std::size_t size) {
  ++g_allocs;
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  ++g_allocs;
  const auto a = static_cast<std::size_t>(align);
  std::size_t rounded = (size + a - 1) / a * a;
  if (rounded == 0) rounded = a;
  void* p = std::aligned_alloc(a, rounded);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

}  // namespace

namespace perfbench {

std::uint64_t alloc_count() noexcept { return g_allocs; }

}  // namespace perfbench

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}

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
