#include "dmst/net/socket_network.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>

#include "dmst/util/assert.h"

namespace dmst {

namespace {

std::int64_t now_ms()
{
    using namespace std::chrono;
    return duration_cast<milliseconds>(steady_clock::now().time_since_epoch())
        .count();
}

// How far ahead of the last consumed epoch an incoming reduce frame may
// claim to be. Honest peers are at most one exchange ahead; anything
// further is forged or corrupt and must not grow the stash unboundedly.
constexpr std::uint64_t kEpochWindow = 64;

}  // namespace

std::uint64_t SocketNetwork::session_counter_ = 0;

SocketNetwork::SocketNetwork(const WeightedGraph& g, NetConfig config)
    : Network(g, config), procs_(config.socket.procs),
      rank_(config.socket.rank),
      table_(g.vertex_count(), config.socket.procs)
{
    lo_ = table_.block_begin(rank_);
    hi_ = table_.block_end(rank_);
    wake_range(active_, lo_, hi_);  // the lane hosts this rank's block only
    peer_cur_.assign(static_cast<std::size_t>(procs_), PeerRound{});
    peer_next_.assign(static_cast<std::size_t>(procs_), PeerRound{});
    out_frames_.resize(static_cast<std::size_t>(procs_));
    out_count_.assign(static_cast<std::size_t>(procs_), 0);
    data_sent_.assign(static_cast<std::size_t>(procs_), 0);
    session_ = ++session_counter_;
    if (procs_ > 1) {
        transport_ = std::make_unique<Transport>(config_.socket, session_);
        sink_ = [this](const PacketHeader& h, const std::uint8_t* frames,
                       std::size_t len) { on_packet(h, frames, len); };
    }
}

SocketNetwork::~SocketNetwork()
{
    if (!transport_)
        return;
    try {
        // Discard frames that race the teardown; the run is over.
        transport_->shutdown(
            250, [](const PacketHeader&, const std::uint8_t*, std::size_t) {});
    } catch (...) {
        // A destructor must not throw; a failed goodbye only costs peers
        // their linger wait.
    }
}

bool SocketNetwork::quiescent() const
{
    if (!transport_)
        return NetworkBase::quiescent();
    return global_state_valid_ && global_quiescent_;
}

template <typename Pred>
void SocketNetwork::poll_until(const Pred& pred, const char* what)
{
    if (pred())
        return;
    const std::int64_t deadline =
        now_ms() + config_.socket.round_timeout_ms;
    for (;;) {
        transport_->poll(20, sink_);
        if (pred())
            return;
        if (now_ms() >= deadline) {
            std::ostringstream oss;
            oss << "socket engine: rank " << rank_ << " timed out after "
                << config_.socket.round_timeout_ms << " ms waiting for "
                << what << " at round " << round_ << " (peer process dead?)";
            throw std::runtime_error(oss.str());
        }
    }
}

void SocketNetwork::flush_peer(int peer)
{
    auto& buf = out_frames_[static_cast<std::size_t>(peer)];
    if (buf.empty())
        return;
    transport_->send_frames(peer, buf.data(), buf.size(),
                            out_count_[static_cast<std::size_t>(peer)]);
    buf.clear();
    out_count_[static_cast<std::size_t>(peer)] = 0;
}

void SocketNetwork::send_single_frame(int peer, FrameKind kind,
                                      std::uint64_t epoch,
                                      const std::uint64_t* words,
                                      std::size_t nwords)
{
    std::vector<std::uint8_t> buf;
    append_frame(buf, kind, 0, epoch, 0, 0, words, nwords);
    transport_->send_frames(peer, buf.data(), buf.size(), 1);
}

void SocketNetwork::send_from(VertexId from, std::size_t port, Message&& msg)
{
    count_send(from, port, msg);
    const VertexId target = graph_.neighbor(from, port);
    const auto arrival_port = static_cast<std::uint32_t>(reverse_port(from, port));
    if (target >= lo_ && target < hi_) {
        stage(target, arrival_port, std::move(msg));
        return;
    }
    // Cross-rank: one Data frame in the owner's coalescing buffer, tagged
    // with the current round so the receiver can place it exactly.
    const int peer = table_.owner(target);
    auto& buf = out_frames_[static_cast<std::size_t>(peer)];
    append_frame(buf, FrameKind::Data, msg.tag, round_, target, arrival_port,
                 msg.words.data(), msg.words.size());
    ++out_count_[static_cast<std::size_t>(peer)];
    ++data_sent_[static_cast<std::size_t>(peer)];
    ++remote_staged_round_;
    if (buf.size() >= kPacketPayloadBudget)
        flush_peer(peer);
}

bool SocketNetwork::step()
{
    DMST_ASSERT_MSG(!processes_.empty(), "init() must be called before stepping");
    // Entering with the global state unknown (fresh network) or last known
    // quiescent (the driver may have kicked vertices since): probe.
    if ((!global_state_valid_ || global_quiescent_) && probe_quiescent())
        return false;
    // The serial engine's sleep-deadlock check, on the state the last
    // barrier agreed on, so every rank throws it at the same round.
    if (global_asleep_)
        throw_round_limit(true);

    ++round_;
    remote_staged_round_ = 0;
    std::fill(data_sent_.begin(), data_sent_.end(), 0);
    // Rotate the ledgers: what accumulated as "next" while we finished the
    // previous round is this round's state.
    peer_cur_.swap(peer_next_);
    std::fill(peer_next_.begin(), peer_next_.end(), PeerRound{});

    step_phase();
    exchange_barrier();
    deliver_phase();
    fold_transport_stats();
    return true;
}

bool SocketNetwork::block_done() const
{
    for (VertexId v = lo_; v < hi_; ++v) {
        if (!processes_[v]->done())
            return false;
    }
    return true;
}

void SocketNetwork::exchange_barrier()
{
    const bool local_done = block_done();
    const bool awake = active_.booked > 0;
    const std::uint64_t staged_out = staged_count() + remote_staged_round_;
    // Arrivals from peers that ran ahead join the staging buffer after the
    // local sends, in arrival order; the rest stage as they arrive
    // (handle_data) while the wait below polls.
    for (RemoteMsg& rm : remote_next_)
        stage(rm.dst, rm.port, std::move(rm.msg));
    remote_next_.clear();

    bool all_done = local_done;
    bool any_awake = awake;
    std::uint64_t global_staged = staged_out;
    if (transport_) {
        in_round_ = true;
        // The barrier rides the same in-order channel as the data, after
        // all of it — its receipt implies the round's data is complete.
        const std::uint64_t flags = (local_done ? kBarrierFlagDone : 0) |
                                    (awake ? kBarrierFlagAwake : 0);
        for (int p = 0; p < procs_; ++p) {
            if (p == rank_)
                continue;
            const std::uint64_t words[kBarrierWords] = {
                data_sent_[static_cast<std::size_t>(p)], flags, staged_out};
            append_frame(out_frames_[static_cast<std::size_t>(p)],
                         FrameKind::Barrier, 0, round_, 0, 0, words,
                         kBarrierWords);
            ++out_count_[static_cast<std::size_t>(p)];
            flush_peer(p);
        }
        poll_until(
            [this] {
                for (int p = 0; p < procs_; ++p) {
                    if (p == rank_)
                        continue;
                    const PeerRound& pr = peer_cur_[static_cast<std::size_t>(p)];
                    if (!pr.barrier_seen ||
                        pr.frames_received < pr.frames_expected)
                        return false;
                }
                return true;
            },
            "round barrier");
        in_round_ = false;
        for (int p = 0; p < procs_; ++p) {
            if (p == rank_)
                continue;
            const PeerRound& pr = peer_cur_[static_cast<std::size_t>(p)];
            if (pr.frames_received != pr.frames_expected) {
                std::ostringstream oss;
                oss << "socket engine: rank " << rank_ << " accepted "
                    << pr.frames_received << " data frames from rank " << p
                    << " at round " << round_ << " but its barrier counted "
                    << pr.frames_expected
                    << " (frames were dropped as malformed, or forged)";
                throw std::runtime_error(oss.str());
            }
            // Each rank counts its own sends, so the sum counts every
            // staged message exactly once.
            all_done = all_done && pr.peer_done;
            any_awake = any_awake || pr.peer_awake;
            global_staged += pr.peer_staged;
        }
    }
    global_quiescent_ = all_done && global_staged == 0;
    global_asleep_ = !any_awake && global_staged == 0;
    global_state_valid_ = true;
}

bool SocketNetwork::probe_quiescent()
{
    // Nothing can be in flight between run() epochs, so done is all there
    // is to know: the run is quiescent when no rank reports "not done".
    std::uint64_t not_done = block_done() ? 0 : 1;
    allreduce_or(&not_done, 1);
    // A driver kick may have woken someone; the next barrier tells.
    global_asleep_ = false;
    global_quiescent_ = not_done == 0;
    global_state_valid_ = true;
    return global_quiescent_;
}

void SocketNetwork::allreduce_or(std::uint64_t* words, std::size_t count)
{
    if (!transport_)
        return;
    DMST_ASSERT_MSG(count >= 1 && count <= kMaxFrameWords,
                    "allreduce_or: word count out of range");
    const std::uint64_t epoch = ++reduce_epoch_;
    for (int p = 0; p < procs_; ++p) {
        if (p != rank_)
            send_single_frame(p, FrameKind::Reduce, epoch, words, count);
    }
    poll_until(
        [this, epoch] {
            const auto it = reduce_stash_.find(epoch);
            if (it == reduce_stash_.end())
                return false;
            for (int p = 0; p < procs_; ++p) {
                if (p != rank_ &&
                    !it->second[static_cast<std::size_t>(p)].seen)
                    return false;
            }
            return true;
        },
        "allreduce exchange");
    const auto& slots = reduce_stash_[epoch];
    for (int p = 0; p < procs_; ++p) {
        if (p == rank_)
            continue;
        const ReduceSlot& slot = slots[static_cast<std::size_t>(p)];
        if (slot.words.size() != count) {
            std::ostringstream oss;
            oss << "socket engine: allreduce width mismatch with rank " << p
                << " (" << slot.words.size() << " vs " << count
                << " words) — drivers must issue collectives symmetrically";
            throw std::runtime_error(oss.str());
        }
        for (std::size_t i = 0; i < count; ++i)
            words[i] |= slot.words[i];
    }
    reduce_consumed_ = epoch;
    reduce_stash_.erase(reduce_stash_.begin(),
                        reduce_stash_.upper_bound(epoch));
    fold_transport_stats();
}

// --------------------------------------------------- hardened receive path

void SocketNetwork::on_packet(const PacketHeader& h,
                              const std::uint8_t* frames, std::size_t len)
{
    const int src = h.src_rank;
    if (src < 0 || src >= procs_ || src == rank_) {
        ++frame_malformed_;
        return;
    }
    FrameCursor c = frame_cursor(frames, len, h);
    WireFrame f;
    while (!c.done()) {
        if (next_frame(c, f) != WireError::Ok) {
            // Frame boundaries can no longer be trusted; the rest of the
            // packet is discarded with it.
            ++frame_malformed_;
            return;
        }
        switch (f.kind) {
        case FrameKind::Data:
            handle_data(src, f);
            break;
        case FrameKind::Barrier:
            handle_barrier(src, f);
            break;
        case FrameKind::Reduce:
            handle_reduce(src, f);
            break;
        }
    }
    if (finish_frames(c) != WireError::Ok)
        ++frame_malformed_;
}

void SocketNetwork::handle_data(int src, const WireFrame& f)
{
    // Structural validation before anything touches engine state: the
    // vertex must be ours, the port must exist, the claimed sender must
    // actually sit behind that port on the claiming rank, and the payload
    // must fit the CONGEST per-message budget.
    const VertexId dst = f.dst_vertex;
    if (!owns(dst) || f.port >= graph_.degree(dst)) {
        ++frame_malformed_;
        return;
    }
    const VertexId sender = graph_.neighbor(dst, f.port);
    if (table_.owner(sender) != src) {
        ++frame_malformed_;
        return;
    }
    if (1 + static_cast<std::size_t>(f.nwords) >
        kWordsPerUnit * static_cast<std::size_t>(config_.bandwidth)) {
        ++frame_malformed_;
        return;
    }
    const bool this_round = in_round_ && f.round == round_;
    if (!this_round && f.round != round_ + 1) {
        ++frame_malformed_;  // stale or far-future round
        return;
    }
    Message msg;
    msg.tag = f.tag;
    for (std::size_t i = 0; i < f.nwords; ++i)
        msg.words.push_back(f.word(i));
    if (this_round) {
        stage(dst, f.port, std::move(msg));
        ++peer_cur_[static_cast<std::size_t>(src)].frames_received;
    } else {
        remote_next_.push_back(RemoteMsg{dst, f.port, std::move(msg)});
        ++peer_next_[static_cast<std::size_t>(src)].frames_received;
    }
}

void SocketNetwork::handle_barrier(int src, const WireFrame& f)
{
    if (f.nwords != kBarrierWords ||
        (f.word(1) & ~(kBarrierFlagDone | kBarrierFlagAwake)) != 0) {
        ++frame_malformed_;
        return;
    }
    PeerRound* slot = nullptr;
    if (in_round_ && f.round == round_)
        slot = &peer_cur_[static_cast<std::size_t>(src)];
    else if (f.round == round_ + 1)
        slot = &peer_next_[static_cast<std::size_t>(src)];
    else {
        ++frame_malformed_;
        return;
    }
    if (slot->barrier_seen) {
        ++frame_malformed_;  // the stream delivers once; a second is forged
        return;
    }
    slot->barrier_seen = true;
    slot->frames_expected = f.word(0);
    slot->peer_done = (f.word(1) & kBarrierFlagDone) != 0;
    slot->peer_awake = (f.word(1) & kBarrierFlagAwake) != 0;
    slot->peer_staged = f.word(2);
}

void SocketNetwork::handle_reduce(int src, const WireFrame& f)
{
    const std::uint64_t epoch = f.round;
    if (f.nwords < 1 || epoch <= reduce_consumed_ ||
        epoch > reduce_consumed_ + kEpochWindow) {
        ++frame_malformed_;
        return;
    }
    auto& slots = reduce_stash_[epoch];
    if (slots.empty())
        slots.assign(static_cast<std::size_t>(procs_), ReduceSlot{});
    ReduceSlot& slot = slots[static_cast<std::size_t>(src)];
    if (slot.seen) {
        ++frame_malformed_;
        return;
    }
    slot.seen = true;
    slot.words.resize(f.nwords);
    for (std::size_t i = 0; i < f.nwords; ++i)
        slot.words[i] = f.word(i);
}

void SocketNetwork::fold_transport_stats()
{
    stats_.malformed_frames = frame_malformed_;
    if (!transport_)
        return;
    const TransportStats& t = transport_->stats();
    stats_.malformed_frames += t.malformed;
    stats_.net_packets_out = t.packets_out;
    stats_.net_packets_in = t.packets_in;
    stats_.net_bytes_out = t.bytes_out;
    stats_.net_bytes_in = t.bytes_in;
}

}  // namespace dmst
