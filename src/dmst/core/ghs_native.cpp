#include "dmst/core/ghs_native.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "dmst/congest/codec.h"
#include "dmst/obs/trace.h"
#include "dmst/proto/bfs.h"  // kNoPort
#include "dmst/util/assert.h"

namespace dmst {
namespace {

// ------------------------------------------------------------- wire layer
//
// The driver has the network to itself, so tags start at 0. Payloads
// follow the codec conventions (congest/codec.h): one u64 per field, an
// EdgeKey as two words. The largest message (INITIATE) is 4 payload words
// + tag = 5 words, far inside the 16-word b=1 budget even when one
// activation answers several deferred messages on the same port.
enum Tag : std::uint32_t {
    kHello = 0,   // IdMsg: sender's vertex id (KT0 bootstrap)
    kConnect,     // LevelMsg: sender fragment's level
    kInitiate,    // InitiateMsg: adopt level/name/state, flood the subtree
    kTest,        // TestMsg: is this edge outgoing from my fragment?
    kAccept,      // EmptyMsg: yes, candidate MWOE
    kReject,      // EmptyMsg: no, internal edge
    kReport,      // ReportMsg: best outgoing key of my subtree
    kChangeRoot,  // EmptyMsg: forward the connect duty toward the MWOE
    kHalt,        // IdMsg: root id, broadcast down the finished tree
};

struct IdMsg {
    std::uint64_t id = 0;

    template <typename F> constexpr void fields(F&& f) { f(id); }
};

struct LevelMsg {
    std::uint64_t level = 0;

    template <typename F> constexpr void fields(F&& f) { f(level); }
};

struct InitiateMsg {
    std::uint64_t level = 0;
    EdgeKey fragment;
    bool find = false;

    template <typename F>
    constexpr void fields(F&& f) { f(level, fragment, find); }
};

struct TestMsg {
    std::uint64_t level = 0;
    EdgeKey fragment;

    template <typename F> constexpr void fields(F&& f) { f(level, fragment); }
};

struct ReportMsg {
    EdgeKey best;

    template <typename F> constexpr void fields(F&& f) { f(best); }
};

// ---------------------------------------------------------------- process
//
// One vertex of the classic GHS state machine [Gallager, Humblet, Spira
// 1983], with EdgeKey in place of the scalar weight everywhere a weight is
// named or compared. Deferral follows the paper: a message whose guard is
// not yet satisfied is parked and retried after every state change, which
// on this surface means a pending list re-scanned to fixpoint after each
// processed message.
class GhsNativeProcess final : public MessageProcess {
public:
    explicit GhsNativeProcess(VertexId id) : id_(id) {}

    void on_start(Context& ctx) override
    {
        TraceScope span(ctx, TracePhase::Hello);
        const std::size_t deg = ctx.degree();
        if (deg == 0) {
            // Isolated vertex: a complete singleton fragment.
            halted_ = true;
            root_ = id_;
            return;
        }
        se_.assign(deg, EdgeState::Basic);
        nbr_id_.assign(deg, kNoVertex);
        hello_left_ = deg;
        for (std::size_t p = 0; p < deg; ++p)
            ctx.send(p, encode(kHello, IdMsg{id_}));
    }

    void on_message(Context& ctx, std::size_t port, Message&& msg) override
    {
        TraceScope span(ctx, TracePhase::Ghs,
                        static_cast<std::int64_t>(level_));
        Incoming inc;
        inc.port = port;
        inc.msg = std::move(msg);
        if (!try_handle(ctx, inc)) {
            pending_.push_back(std::move(inc));
            return;
        }
        drain_pending(ctx);
    }

    bool done() const override { return halted_; }

    // ---- harvest (after the run) ---------------------------------------
    std::uint64_t fragment_id() const { return halted_ ? root_ : id_; }
    std::size_t parent_port() const { return parent_port_; }
    std::vector<std::size_t> mst_ports() const
    {
        std::vector<std::size_t> out;
        for (std::size_t p = 0; p < se_.size(); ++p)
            if (se_[p] == EdgeState::Branch)
                out.push_back(p);
        return out;
    }
    bool quiesced() const { return pending_.empty(); }

private:
    enum class EdgeState : std::uint8_t { Basic, Branch, Rejected };
    enum class NodeState : std::uint8_t { Find, Found };

    // EdgeKey of the edge behind a port; defined once Hello arrived on it.
    EdgeKey key(Context& ctx, std::size_t port) const
    {
        const VertexId u = id_;
        const VertexId v = nbr_id_[port];
        DMST_ASSERT(v != kNoVertex);
        return EdgeKey{ctx.weight(port), std::min(u, v), std::max(u, v)};
    }

    // Processes one message unless its GHS guard defers it; true iff
    // processed. Every deferral guard here is from the 1983 paper, plus
    // the KT0 wakeup guard (nothing but Hello before all Hellos).
    bool try_handle(Context& ctx, Incoming& inc)
    {
        if (inc.msg.tag == kHello) {
            on_hello(ctx, inc.port, decode<IdMsg>(inc.msg));
            return true;
        }
        if (!awake_)
            return false;
        DMST_ASSERT_MSG(!halted_, "ghs_native: protocol message after halt");
        switch (inc.msg.tag) {
        case kConnect: {
            const auto m = decode<LevelMsg>(inc.msg);
            if (m.level >= level_ && se_[inc.port] == EdgeState::Basic)
                return false;  // wait: merge/absorb decision not ripe
            on_connect(ctx, inc.port, m.level);
            return true;
        }
        case kInitiate:
            on_initiate(ctx, inc.port, decode<InitiateMsg>(inc.msg));
            return true;
        case kTest: {
            const auto m = decode<TestMsg>(inc.msg);
            if (m.level > level_)
                return false;  // wait until our fragment catches up
            on_test(ctx, inc.port, m);
            return true;
        }
        case kAccept:
            on_accept(ctx, inc.port);
            return true;
        case kReject:
            on_reject(ctx, inc.port);
            return true;
        case kReport: {
            if (inc.port == in_branch_ && state_ == NodeState::Find)
                return false;  // core partner's report waits for our find
            on_report(ctx, inc.port, decode<ReportMsg>(inc.msg));
            return true;
        }
        case kChangeRoot:
            change_root(ctx);
            return true;
        case kHalt:
            on_halt(ctx, inc.port, decode<IdMsg>(inc.msg));
            return true;
        }
        DMST_ASSERT_MSG(false, "ghs_native: unknown tag");
        return true;
    }

    // Retries parked messages until a full pass defers them all. Each
    // retry that succeeds may unlock others, so restart from the front.
    void drain_pending(Context& ctx)
    {
        bool progress = true;
        while (progress) {
            progress = false;
            for (std::size_t i = 0; i < pending_.size(); ++i) {
                if (try_handle(ctx, pending_[i])) {
                    pending_.erase(pending_.begin() +
                                   static_cast<std::ptrdiff_t>(i));
                    progress = true;
                    break;
                }
            }
        }
    }

    void on_hello(Context& ctx, std::size_t port, const IdMsg& m)
    {
        DMST_ASSERT(nbr_id_[port] == kNoVertex);
        nbr_id_[port] = static_cast<VertexId>(m.id);
        if (--hello_left_ == 0)
            wakeup(ctx);
    }

    // Spontaneous wakeup: join the MST via the locally minimum edge.
    void wakeup(Context& ctx)
    {
        awake_ = true;
        const std::size_t m = min_basic_port(ctx);
        DMST_ASSERT(m != kNoPort);
        se_[m] = EdgeState::Branch;
        state_ = NodeState::Found;
        ctx.send(m, encode(kConnect, LevelMsg{0}));
    }

    void on_connect(Context& ctx, std::size_t port, std::uint64_t level)
    {
        if (level < level_) {
            // Absorb the lower-level fragment into ours as a subtree.
            se_[port] = EdgeState::Branch;
            ctx.send(port,
                     encode(kInitiate,
                            InitiateMsg{level_, frag_,
                                        state_ == NodeState::Find}));
            if (state_ == NodeState::Find)
                ++find_count_;
            return;
        }
        // Equal levels and we Connected on this edge too (it is Branch):
        // merge. Both endpoints send Initiate(L+1) across the core; the
        // new fragment is named by the core edge's key.
        DMST_ASSERT(se_[port] == EdgeState::Branch);
        ctx.send(port, encode(kInitiate, InitiateMsg{level_ + 1,
                                                     key(ctx, port), true}));
    }

    void on_initiate(Context& ctx, std::size_t port, const InitiateMsg& m)
    {
        DMST_ASSERT_MSG(find_count_ == 0,
                        "ghs_native: Initiate during an unfinished find");
        level_ = m.level;
        frag_ = m.fragment;
        state_ = m.find ? NodeState::Find : NodeState::Found;
        in_branch_ = port;
        best_port_ = kNoPort;
        best_wt_ = kInfiniteEdgeKey;
        for (std::size_t p = 0; p < se_.size(); ++p) {
            if (p == port || se_[p] != EdgeState::Branch)
                continue;
            ctx.send(p, encode(kInitiate, m));
            if (m.find)
                ++find_count_;
        }
        if (m.find)
            test(ctx);
    }

    // Probe the cheapest unresolved edge, or close out our local search.
    void test(Context& ctx)
    {
        const std::size_t p = min_basic_port(ctx);
        if (p == kNoPort) {
            test_port_ = kNoPort;
            report(ctx);
            return;
        }
        test_port_ = p;
        ctx.send(p, encode(kTest, TestMsg{level_, frag_}));
    }

    void on_test(Context& ctx, std::size_t port, const TestMsg& m)
    {
        if (m.fragment != frag_) {
            ctx.send(port, encode(kAccept, EmptyMsg{}));
            return;
        }
        if (se_[port] == EdgeState::Basic)
            se_[port] = EdgeState::Rejected;
        if (test_port_ != port)
            ctx.send(port, encode(kReject, EmptyMsg{}));
        else
            test(ctx);  // our own probe crossed theirs; move on silently
    }

    void on_accept(Context& ctx, std::size_t port)
    {
        DMST_ASSERT(port == test_port_);
        test_port_ = kNoPort;
        const EdgeKey k = key(ctx, port);
        if (k < best_wt_) {
            best_wt_ = k;
            best_port_ = port;
        }
        report(ctx);
    }

    void on_reject(Context& ctx, std::size_t port)
    {
        DMST_ASSERT(port == test_port_);
        if (se_[port] == EdgeState::Basic)
            se_[port] = EdgeState::Rejected;
        test(ctx);
    }

    void report(Context& ctx)
    {
        if (find_count_ != 0 || test_port_ != kNoPort)
            return;
        state_ = NodeState::Found;
        DMST_ASSERT(in_branch_ != kNoPort);
        ctx.send(in_branch_, encode(kReport, ReportMsg{best_wt_}));
    }

    void on_report(Context& ctx, std::size_t port, const ReportMsg& m)
    {
        if (port != in_branch_) {
            // A child's subtree result.
            --find_count_;
            if (m.best < best_wt_) {
                best_wt_ = m.best;
                best_port_ = port;
            }
            report(ctx);
            return;
        }
        // The core partner's result (we are Found — the guard held Find).
        if (best_wt_ < m.best) {
            change_root(ctx);
            return;
        }
        if (m.best == best_wt_) {
            // Both sides found nothing outgoing: the fragment spans its
            // component. (A finite tie is impossible — keys are unique
            // and an outgoing edge hangs off exactly one core side.)
            DMST_ASSERT(best_wt_ == kInfiniteEdgeKey);
            halt(ctx);
        }
        // m.best < best_wt_: the partner's side owns the MWOE; it will
        // change root. Nothing to do here.
    }

    void change_root(Context& ctx)
    {
        DMST_ASSERT(best_port_ != kNoPort);
        if (se_[best_port_] == EdgeState::Branch) {
            ctx.send(best_port_, encode(kChangeRoot, EmptyMsg{}));
            return;
        }
        ctx.send(best_port_, encode(kConnect, LevelMsg{level_}));
        se_[best_port_] = EdgeState::Branch;
    }

    // Core endpoint detected completion. The smaller core id becomes the
    // fragment root (both endpoints know both ids from the Hello round)
    // and each endpoint floods Halt down its own side of the tree.
    void halt(Context& ctx)
    {
        TraceScope span(ctx, TracePhase::Finish);
        halted_ = true;
        const VertexId partner = nbr_id_[in_branch_];
        if (id_ < partner) {
            root_ = id_;
            parent_port_ = kNoPort;
        } else {
            root_ = partner;
            parent_port_ = in_branch_;
        }
        broadcast_halt(ctx, in_branch_);
    }

    void on_halt(Context& ctx, std::size_t port, const IdMsg& m)
    {
        TraceScope span(ctx, TracePhase::Finish);
        halted_ = true;
        root_ = m.id;
        parent_port_ = port;
        broadcast_halt(ctx, port);
    }

    void broadcast_halt(Context& ctx, std::size_t skip)
    {
        for (std::size_t p = 0; p < se_.size(); ++p)
            if (p != skip && se_[p] == EdgeState::Branch)
                ctx.send(p, encode(kHalt, IdMsg{root_}));
    }

    std::size_t min_basic_port(Context& ctx) const
    {
        std::size_t best = kNoPort;
        EdgeKey bk = kInfiniteEdgeKey;
        for (std::size_t p = 0; p < se_.size(); ++p) {
            if (se_[p] != EdgeState::Basic)
                continue;
            const EdgeKey k = key(ctx, p);
            if (k < bk) {
                bk = k;
                best = p;
            }
        }
        return best;
    }

    const VertexId id_;

    // KT0 bootstrap.
    std::vector<VertexId> nbr_id_;
    std::size_t hello_left_ = 0;
    bool awake_ = false;

    // Classic GHS per-vertex state.
    std::vector<EdgeState> se_;
    std::uint64_t level_ = 0;
    EdgeKey frag_{};  // level-0 sentinel {0, id, id} never escapes the node
    NodeState state_ = NodeState::Found;
    std::size_t best_port_ = kNoPort;
    EdgeKey best_wt_ = kInfiniteEdgeKey;
    std::size_t test_port_ = kNoPort;
    int find_count_ = 0;
    std::size_t in_branch_ = kNoPort;
    std::vector<Incoming> pending_;  // deferred messages, retried to fixpoint

    // Termination.
    bool halted_ = false;
    std::uint64_t root_ = 0;
    std::size_t parent_port_ = kNoPort;
};

}  // namespace

MstForestResult run_ghs_native(const WeightedGraph& g,
                               const GhsNativeOptions& opts)
{
    DriverHarness<GhsNativeProcess> h(
        g, opts.to_net_config(), {},
        [](VertexId v) { return std::make_unique<GhsNativeProcess>(v); });
    h.run();
    return h.collect<MstForestResult>([](const GhsNativeProcess& p) {
        DMST_ASSERT_MSG(p.quiesced(),
                        "ghs_native: deferred messages left at halt");
    });
}

}  // namespace dmst
