#pragma once

// Heap high-water mark of the checks that bound what a loader allocates on
// hostile input. tests/heap_peak.cpp replaces the global operator new and
// operator delete with counting versions; only the test binaries that link
// it count. Unlike VmPeak, which a process never lowers, the peak restarts
// at every reset_heap_peak(), so each check measures what it allocates
// itself, whatever earlier tests in the same process allocated.

#include <cstdint>

namespace duo::testing {

// Restarts the peak at the bytes the process holds through operator new
// now, and returns that count.
std::int64_t reset_heap_peak() noexcept;

// The most bytes the process has held through operator new since the last
// reset_heap_peak(). A reader that allocates for a corrupt length raises it
// even if it frees the buffer before returning false.
std::int64_t heap_peak_bytes() noexcept;

// How far a loader may raise the heap peak on hostile input: below what the
// hostile lengths in these tests would cost if honoured.
constexpr std::int64_t kHeapGrowthBoundBytes = std::int64_t{64} << 20;

}  // namespace duo::testing
