// Minimal NUMA placement helper — no libnuma dependency.
//
// Buffers that were touched on one thread (std::vector columns built
// serially at compile(), deserialized cache loads) are re-spread with a raw
// mbind(MPOL_INTERLEAVE, MPOL_MF_MOVE) syscall. Interleaving is the right
// policy for the read-shared CompiledModel columns: every solve streams
// every column once per sweep, and concurrent batch solves share them, so
// spreading pages round-robin balances the memory channels.
//
// The helper is an exact no-op on single-node machines (the common dev
// container) and on non-Linux builds; callers never need to guard.
#pragma once

#include <cstddef>

namespace bvc::util::numa {

/// Number of online NUMA nodes, parsed once from
/// /sys/devices/system/node/online ("0", "0-3", "0,2-3" forms). 1 when the
/// file is absent or unparsable (non-Linux, restricted container).
[[nodiscard]] int node_count() noexcept;

[[nodiscard]] inline bool multi_node() noexcept { return node_count() > 1; }

/// Interleaves the whole pages of [data, data+bytes) across all nodes and
/// migrates already-faulted pages (MPOL_MF_MOVE). Returns true iff the
/// mbind syscall ran and succeeded; false on single-node machines,
/// non-Linux builds, sub-page ranges, or EPERM-style refusals (placement
/// is an optimization — failure is never an error).
bool interleave_pages(void* data, std::size_t bytes) noexcept;

}  // namespace bvc::util::numa
