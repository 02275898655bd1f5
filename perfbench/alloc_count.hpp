// Allocation counting for the traced run (see alloc_count.cpp).
#pragma once

#include <cstdint>

namespace perfbench {

/// operator new calls made by the calling thread so far.
[[nodiscard]] std::uint64_t thread_allocations();

}  // namespace perfbench
