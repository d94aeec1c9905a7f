#include "dmst/sim/synchronizer.h"

#include <algorithm>
#include <queue>

#include "dmst/util/assert.h"

namespace dmst {

// ------------------------------------------------------- PulseSynchronizer

PulseSynchronizer::PulseSynchronizer(const WeightedGraph& g)
    : graph_(g), state_(g.vertex_count())
{
    // A degree-0 vertex can never learn its (nonexistent) neighbors are
    // safe and would free-run unboundedly; the pulse synchronizers, like
    // the protocols, are defined on graphs with no isolated vertices.
    for (VertexId v = 0; v < g.vertex_count(); ++v)
        DMST_ASSERT_MSG(g.degree(v) > 0,
                        "async engine requires every vertex to have degree >= 1");
}

void PulseSynchronizer::start_epoch(std::uint64_t base_level)
{
    base_level_ = base_level;
    for (CoreState& st : state_) {
        st.pulse = base_level;
        st.unacked = 0;
        st.safe = false;
        st.sends_done = false;
        DMST_ASSERT(st.buffer[0].empty() && st.buffer[1].empty());
    }
    reset_epoch();
}

void PulseSynchronizer::buffer_payload(VertexId v, std::uint64_t tag,
                                       AsyncIncoming&& in)
{
    CoreState& st = state_[v];
    DMST_ASSERT_MSG(tag == st.pulse || tag == st.pulse + 1,
                    "payload tag outside the synchronizer skew window");
    st.buffer[tag & 1].push_back(in);
}

void PulseSynchronizer::note_ack(VertexId v, std::vector<SyncEmit>& out)
{
    CoreState& st = state_[v];
    DMST_ASSERT_MSG(st.unacked > 0, "ACK with no send outstanding");
    --st.unacked;
    if (st.unacked == 0 && st.sends_done && !st.safe) {
        st.safe = true;
        on_safe(v, out);
    }
}

void PulseSynchronizer::note_pulse_sends_done(VertexId v,
                                              std::vector<SyncEmit>& out)
{
    CoreState& st = state_[v];
    st.sends_done = true;
    if (st.unacked == 0 && !st.safe) {
        st.safe = true;
        on_safe(v, out);
    }
}

void PulseSynchronizer::begin_pulse(VertexId v, std::vector<AsyncIncoming>& out)
{
    CoreState& st = state_[v];
    std::vector<AsyncIncoming>& buf = st.buffer[st.pulse & 1];
    // (port, seq) pairs are unique — one sender per port, one seq stream
    // per (sender, pulse, port) — so an unstable sort is deterministic.
    std::sort(buf.begin(), buf.end(),
              [](const AsyncIncoming& a, const AsyncIncoming& b) {
                  return a.port != b.port ? a.port < b.port : a.seq < b.seq;
              });
    // Copy out (16-byte handle records) rather than swapping buffers: a
    // swap would circulate capacities between vertices of different
    // degrees through the caller's shared scratch, forcing perpetual
    // regrowth; this way every vertex's buffer keeps its own high-water
    // capacity and the steady state never touches the allocator.
    out.assign(buf.begin(), buf.end());
    buf.clear();

    ++st.pulse;
    st.unacked = 0;
    st.safe = false;
    st.sends_done = false;
    reset_vertex(v);
}

// ------------------------------------------------------- AlphaSynchronizer

AlphaSynchronizer::AlphaSynchronizer(const WeightedGraph& g)
    : PulseSynchronizer(g), alpha_(g.vertex_count())
{
}

void AlphaSynchronizer::on_safe(VertexId v, std::vector<SyncEmit>& out)
{
    // SAFE(pulse) to every neighbor, in port order (the canonical staging
    // order the engine turns into its event schedule).
    const std::uint64_t level = state_[v].pulse;
    for (std::size_t p = 0; p < graph_.degree(v); ++p)
        out.push_back(SyncEmit{graph_.neighbor(v, p), 0, level});
}

void AlphaSynchronizer::on_control(VertexId v, std::uint32_t ctrl,
                                   std::uint64_t level,
                                   std::vector<SyncEmit>& out)
{
    (void)ctrl;
    (void)out;  // SAFE arrivals never trigger further control
    CoreState& st = state_[v];
    DMST_ASSERT_MSG(level == st.pulse || level == st.pulse + 1,
                    "SAFE level outside the synchronizer skew window");
    ++alpha_[v].safe_from[level & 1];
    DMST_ASSERT(alpha_[v].safe_from[level & 1] <= graph_.degree(v));
}

bool AlphaSynchronizer::ready(VertexId v) const
{
    const CoreState& st = state_[v];
    if (st.pulse == base_level_)
        return true;  // the epoch's first pulse is ungated
    return st.safe && alpha_[v].safe_from[st.pulse & 1] == graph_.degree(v);
}

void AlphaSynchronizer::reset_vertex(VertexId v)
{
    // begin_pulse consumed level pulse-1 (pulse is already the new value);
    // its SAFE slot is recycled for level pulse+1 of matching parity.
    alpha_[v].safe_from[(state_[v].pulse - 1) & 1] = 0;
}

void AlphaSynchronizer::reset_epoch()
{
    for (AlphaState& st : alpha_)
        st.safe_from[0] = st.safe_from[1] = 0;
}

// -------------------------------------------------------- BetaSynchronizer

BetaSynchronizer::BetaSynchronizer(const WeightedGraph& g)
    : PulseSynchronizer(g), beta_(g.vertex_count())
{
    // BFS spanning forest: one tree per component, rooted at the
    // component's minimum-id vertex; children discovered in (parent id,
    // port) order, so the tree — and with it the whole control schedule —
    // is a deterministic function of the graph alone.
    std::vector<std::uint8_t> seen(g.vertex_count(), 0);
    std::queue<VertexId> frontier;
    for (VertexId r = 0; r < g.vertex_count(); ++r) {
        if (seen[r])
            continue;
        seen[r] = 1;
        frontier.push(r);
        while (!frontier.empty()) {
            const VertexId u = frontier.front();
            frontier.pop();
            for (std::size_t p = 0; p < g.degree(u); ++p) {
                const VertexId w = g.neighbor(u, p);
                if (seen[w])
                    continue;
                seen[w] = 1;
                beta_[w].parent = u;
                beta_[w].parent_port = g.reverse_port(u, p);
                beta_[u].children.push_back(w);
                frontier.push(w);
            }
        }
    }
}

void BetaSynchronizer::maybe_advance(VertexId v, std::vector<SyncEmit>& out)
{
    BetaState& bt = beta_[v];
    if (bt.ready_sent || !state_[v].safe ||
        bt.ready_children != bt.children.size())
        return;
    bt.ready_sent = true;
    const std::uint64_t level = state_[v].pulse;
    if (root(v)) {
        // The whole tree is safe for `level`: broadcast GO and authorize
        // the root's own next pulse (its GO is local).
        for (VertexId c : bt.children)
            out.push_back(SyncEmit{c, kGo, level});
        bt.go = true;
    } else {
        out.push_back(SyncEmit{bt.parent, kReady, level});
    }
}

void BetaSynchronizer::on_safe(VertexId v, std::vector<SyncEmit>& out)
{
    maybe_advance(v, out);
}

void BetaSynchronizer::on_control(VertexId v, std::uint32_t ctrl,
                                  std::uint64_t level,
                                  std::vector<SyncEmit>& out)
{
    BetaState& bt = beta_[v];
    DMST_ASSERT_MSG(level == state_[v].pulse,
                    "beta control level outside the pulse it refers to");
    if (ctrl == kReady) {
        ++bt.ready_children;
        DMST_ASSERT(bt.ready_children <= bt.children.size());
        maybe_advance(v, out);
    } else {
        DMST_ASSERT(ctrl == kGo);
        DMST_ASSERT_MSG(!bt.go, "duplicate GO for one pulse");
        bt.go = true;
        // Forward down immediately — children need not wait for this
        // vertex's next pulse to learn the tree is safe.
        for (VertexId c : bt.children)
            out.push_back(SyncEmit{c, kGo, level});
    }
}

bool BetaSynchronizer::ready(VertexId v) const
{
    if (state_[v].pulse == base_level_)
        return true;  // the epoch's first pulse is ungated
    return beta_[v].go;
}

void BetaSynchronizer::reset_vertex(VertexId v)
{
    BetaState& bt = beta_[v];
    bt.ready_children = 0;
    bt.ready_sent = false;
    bt.go = false;
}

void BetaSynchronizer::reset_epoch()
{
    for (BetaState& bt : beta_) {
        bt.ready_children = 0;
        bt.ready_sent = false;
        bt.go = false;
    }
}

}  // namespace dmst
