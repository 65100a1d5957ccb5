#ifndef FLOWCUBE_MINING_COUNTING_BACKEND_H_
#define FLOWCUBE_MINING_COUNTING_BACKEND_H_

#include <span>
#include <vector>

#include "mining/apriori.h"

namespace flowcube {

class AuditReport;
class ThreadPool;

// The counting engine every miner uses (DESIGN.md §13): evaluates every
// candidate's support over `txns` into `counter` (counts at zero for this
// scan's candidates). It builds a sorted transaction-id list per item some
// candidate touches, plus a packed bitmap for the dense ones, and
// intersects them per candidate, split over candidates across `pool`.
// Supports are exact integers, so the thread count never changes them.
// Under FC_AUDIT every call is recounted with the reference engine
// (AuditCandidateCounts) and aborts on any difference.
//
// `pool` may be null (serial). `grain` is the scheduling grain for
// transaction-indexed loops.
void CountAllTransactions(const std::vector<std::span<const ItemId>>& txns,
                          ThreadPool* pool, size_t grain,
                          CandidateCounter* counter);

// The supports of `counter`'s candidates over `txns`, in candidate order,
// from the reference engine (CandidateCounter's horizontal pair-index
// scan, scalar and serial). `counter`'s own counts are not read.
std::vector<uint32_t> ReferenceCounts(
    const std::vector<std::span<const ItemId>>& txns,
    const CandidateCounter& counter);

// Recounts `counter`'s candidates with ReferenceCounts and reports every
// candidate whose count differs.
AuditReport AuditCandidateCounts(
    const std::vector<std::span<const ItemId>>& txns,
    const CandidateCounter& counter);

}  // namespace flowcube

#endif  // FLOWCUBE_MINING_COUNTING_BACKEND_H_
