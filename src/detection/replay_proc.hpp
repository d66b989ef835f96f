// Multi-process replay grids over shared trace files: the replay-level
// binding of the campaign transport in scenario/runner.hpp. A recorded
// campaign trace (scenario/trace_io.hpp) is the shared input — workers
// on the same filesystem each open it read-only via TraceReader
// (O(window) memory, header+footer validated at open so a truncated
// copy fails fast) and publish one wire frame per (campaign, seed) cell
// into a results directory.
//
// Two entry points:
//
//   ReplayGridJob
//     The CellJob for replay cells. scenario::run_job_worker_cells runs
//     its cells in the gridworker binary's --replay-grid --worker mode;
//     scenario::ProcessCellCoordinator drives it with the per-cell
//     no-progress timeout, bounded-backoff retry, FaultPlan injection,
//     quarantine, and checkpoint/resume, and take_report(outcome) folds
//     the run into a ReplayGridReport whose fingerprint is
//     byte-identical to in-process ReplayGrid::run —
//     tests/gridproc_test.cpp proves it under crash injection.
//
//   merge_replay_frames
//     The merge-only path: folds whatever valid frames a results
//     directory holds into a ReplayGridReport without executing
//     anything — the piece that lets N hosts shard a grid by hand
//     (disjoint --cells over a shared trace file) and any one of them
//     fold the directory afterwards. The combined fingerprint is
//     invariant to worker count, partition shape, and retry history
//     because it only ever covers completed cells' points in cell
//     order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "detection/replay_grid.hpp"
#include "scenario/runner.hpp"
#include "scenario/trace.hpp"

namespace onion::detection {

/// "replay_cell_000042.frame" — distinct from the campaign transport's
/// "cell_000042.frame" so the two grids can never collide in one
/// results directory.
std::string replay_cell_frame_filename(std::uint64_t cell_index);

/// Binds a ReplayGrid to scenario's generic process machinery: frames
/// are encoded ReplayGridCells, identity is (cell_index, campaign,
/// replay_seed, points-per-cell), accepted cells collect into a
/// cell-order table take_report() folds into a ReplayGridReport.
///
/// The merge-only constructor records the campaign *count* without any
/// trace sources; such a job can validate and collect frames but must
/// never be asked to execute a cell (run_cell aborts via ONION_EXPECTS).
class ReplayGridJob final : public scenario::CellJob {
 public:
  /// Executable job: one TraceSource per campaign, cells can run.
  ReplayGridJob(const ReplayGrid& grid,
                std::vector<const scenario::TraceSource*> campaigns);
  /// Merge-only job: frame validation and collection without sources.
  ReplayGridJob(const ReplayGrid& grid, std::size_t campaign_count);

  std::size_t size() const override;
  std::string frame_filename(std::uint64_t cell_index) const override;
  std::string cell_label(std::uint64_t cell_index) const override;
  std::uint64_t cell_seed(std::uint64_t cell_index) const override;
  Bytes run_cell(std::uint64_t cell_index) const override;
  bool accept_frame(std::uint64_t cell_index, BytesView framed,
                    std::string& error) override;

  /// Folds the accepted cells and a coordinated run's `outcome` into a
  /// report: points are the completed cells' slices concatenated in
  /// cell order, and the fingerprint covers exactly those points — so a
  /// full collection reproduces the in-process ReplayGrid::run digest
  /// byte-for-byte.
  ReplayGridReport take_report(scenario::ProcessOutcome outcome = {});

 private:
  const ReplayGrid& grid_;
  std::vector<const scenario::TraceSource*> campaigns_;
  std::size_t campaign_count_ = 0;
  std::vector<ReplayGridCell> cells_;
  std::vector<bool> present_;
};

/// Merge-only: folds the valid replay frames in `results_dir` into a
/// report. Missing or invalid cells land in failed_cells (attempts 0)
/// with the rejection reason; nothing is executed or retried.
ReplayGridReport merge_replay_frames(const ReplayGrid& grid,
                                     std::size_t campaign_count,
                                     const std::string& results_dir);

}  // namespace onion::detection
