// Heap-allocation counter for the benchmark executables.
//
// alloc_hook.cpp replaces the global operator new/delete family with
// malloc/free plus one relaxed atomic increment per allocation. It is
// compiled into each benchmark executable, so every allocation the program
// makes — on any thread — is counted.
#pragma once

#include <cstdint>

namespace perfbench {

/// Allocations made through operator new since process start.
std::uint64_t allocation_count();

}  // namespace perfbench
