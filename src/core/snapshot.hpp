/**
 * @file
 * Copy-on-write machine snapshots — the `sim::Snapshot` surface.
 *
 * A Snapshot (defined in core/simulator.hpp next to the harness that
 * produces it) is a complete machine state captured at a committed-
 * instruction boundary:
 *
 *   - the functional memory image as a page-level COW fork
 *     (SparseMemory::fork(): shared immutable pages, per-fork dirty-page
 *     overlay, O(dirty pages) per fork);
 *   - the warmed timing hierarchy (caches, TLBs, DRAM bank state) as a
 *     value copy;
 *   - the core's architectural registers plus the full mid-run state of
 *     its timing loop (cpu::Core::Snapshot: resource frontiers,
 *     scoreboard, store buffer, predictor, basic-block tracker);
 *   - the validation backend's complete mid-run state
 *     (validate::ValidatorSnapshot — REV: inflight ring, CHG digest
 *     memo, SC/SAG contents, return latch and shadow stack, table-reader
 *     headers, counters; LO-FAT: hash chain, measurement buffer, CHG
 *     digest memo, counters).
 *
 * Capture once per (workload, config) with Simulator::snapshotAt(), then
 * fork per divergent suffix with Simulator::forkFrom(); each fork
 * commits exactly the instruction stream — and reports exactly the
 * statistics — a cold run would from the snapshot index on. The
 * red-team campaign engine forks each injection from the warmed golden
 * snapshot at its trigger point instead of re-executing the prefix.
 *
 * forkFrom() takes the snapshot by value and builds the fork's
 * components from its state. Copying a Snapshot is a fork of it (COW
 * memory, value copies of the rest), so pass an lvalue to keep the
 * snapshot for more forks and std::move() it into its last fork, which
 * then copies nothing. Decoded instructions live with the COW code
 * pages (prog::DecodedPage), so forks of one snapshot also share the
 * decodes of every page none of them has written
 * (docs/INTERNALS.md §12).
 */

#ifndef REV_CORE_SNAPSHOT_HPP
#define REV_CORE_SNAPSHOT_HPP

#include "core/simulator.hpp"

namespace rev::sim
{

using Snapshot = core::Snapshot;
using core::Simulator;

} // namespace rev::sim

#endif // REV_CORE_SNAPSHOT_HPP
