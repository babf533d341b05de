// Heap-allocation counter for the benchmark binary.
//
// alloc_count.cpp replaces the global operator new family, so every heap
// allocation the library makes on the benchmark's thread is counted
// without a specially built library. The count is exact and repeats bit
// for bit for a fixed seed: the workloads are single-threaded and
// deterministic.
#pragma once

#include <cstdint>

namespace perfbench {

/// Heap allocations made through operator new since the process started.
[[nodiscard]] std::uint64_t alloc_count() noexcept;

}  // namespace perfbench
