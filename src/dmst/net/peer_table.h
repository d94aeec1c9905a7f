#ifndef DMST_NET_PEER_TABLE_H
#define DMST_NET_PEER_TABLE_H

#include <cstdint>
#include <string>
#include <vector>

#include "dmst/congest/network_base.h"
#include "dmst/graph/graph.h"
#include "dmst/util/assert.h"

namespace dmst {

// Maps vertices to ranks and ranks to transport endpoints for the socket
// backend. Vertices are sharded into contiguous, balanced blocks: rank r
// owns [n*r/procs, n*(r+1)/procs). Contiguity keeps the ownership test one
// comparison pair and lets every driver iterate its local span directly;
// balance keeps per-rank work within one vertex of even. A rank's endpoint
// is (host, base_port + rank) — single-host for now, but nothing below the
// table assumes it.
class PeerTable {
public:
    PeerTable(std::size_t n, int procs)
        : n_(n), procs_(procs)
    {
        DMST_ASSERT_MSG(procs >= 1, "peer table: procs must be >= 1");
        begins_.resize(static_cast<std::size_t>(procs) + 1);
        for (int r = 0; r <= procs; ++r)
            begins_[static_cast<std::size_t>(r)] = static_cast<VertexId>(
                n * static_cast<std::uint64_t>(r) / static_cast<std::uint64_t>(procs));
    }

    std::size_t n() const { return n_; }
    int procs() const { return procs_; }

    VertexId block_begin(int rank) const
    {
        return begins_[static_cast<std::size_t>(rank)];
    }
    VertexId block_end(int rank) const
    {
        return begins_[static_cast<std::size_t>(rank) + 1];
    }

    // Rank owning vertex v. The blocks are contiguous and sorted, so this
    // is a binary search over at most procs+1 block starts.
    int owner(VertexId v) const
    {
        DMST_ASSERT_MSG(v < n_, "peer table: vertex out of range");
        int lo = 0;
        int hi = procs_ - 1;
        while (lo < hi) {
            const int mid = (lo + hi) / 2;
            if (v < block_end(mid))
                hi = mid;
            else
                lo = mid + 1;
        }
        return lo;
    }

    // TCP port of rank r under `base_port` (rank r listens there).
    static int port_of(int base_port, int rank) { return base_port + rank; }

private:
    std::size_t n_;
    int procs_;
    std::vector<VertexId> begins_;
};

}  // namespace dmst

#endif  // DMST_NET_PEER_TABLE_H
