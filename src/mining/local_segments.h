#ifndef FLOWCUBE_MINING_LOCAL_SEGMENTS_H_
#define FLOWCUBE_MINING_LOCAL_SEGMENTS_H_

#include <span>
#include <vector>

#include "mining/mining_result.h"
#include "mining/stage_chains.h"

namespace flowcube {

// Mines the frequent path segments of one cell directly from its member
// transactions: each member is projected onto its stage chain at one path
// abstraction level and run through plain exact Apriori at `min_support`.
// A prefilter counts the chains' stage items first (CountFrequentItems,
// Apriori's pass 1): when no item reaches `min_support` it returns
// nothing without projecting a chain, and otherwise each member is
// projected onto its frequent items only, which by anti-monotonicity
// leaves every frequent segment and its support unchanged.
//
// For a cell whose members are exactly the transactions containing its
// dimension items (which holds for every cuboid cell: a record maps to the
// cell's coordinates at item level Il iff its transaction contains them),
// this returns the same patterns with the same supports as
// MiningResult::SegmentsForCell over a global Shared run, in the same order
// (support desc, stages asc). The incremental maintainer uses it to re-mine
// only the cells a delta touched instead of re-running Shared on the whole
// database.
std::vector<SegmentPattern> MineCellSegments(const LevelChains& chains,
                                             std::span<const uint32_t> tids,
                                             uint32_t min_support);

}  // namespace flowcube

#endif  // FLOWCUBE_MINING_LOCAL_SEGMENTS_H_
