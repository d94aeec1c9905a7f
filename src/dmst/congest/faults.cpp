#include "dmst/congest/faults.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace dmst {
namespace {

// Dedicated hash streams so loss draws never collide with the
// conditioner's latency/bandwidth/permutation streams or the async
// engine's delay stream, even under shared seeds.
constexpr std::uint64_t kLossStream = 0x6c6f737321000017ULL;    // "loss!"
constexpr std::uint64_t kWindowStream = 0x77696e646f770019ULL;  // "window"
constexpr std::uint64_t kCrashStream = 0x6372617368001d03ULL;   // "crash"

double u01(std::uint64_t h)
{
    // 53 high bits -> [0, 1), the usual double-from-bits construction.
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

std::uint64_t FaultConfig::rto(int attempt, std::uint64_t rtt)
{
    const int shift = std::min(attempt - 1, 30);
    return rtt + std::min(kRtoBase << shift, kRtoCap);
}

std::uint64_t FaultConfig::worst_round_ticks() const
{
    if (!loss_enabled()) return 1;
    // Worst plan: attempts 1..kMaxAttempts-1 all lose data or ACK, each
    // costing its full timer; the forced final attempt completes in RTT.
    std::uint64_t t = 0;
    for (int k = 1; k < kMaxAttempts; ++k) t += rto(k, kRtt);
    return t + kRtt;
}

std::uint64_t scaled_round_budget(std::uint64_t ideal_rounds,
                                  const FaultConfig& faults)
{
    const std::uint64_t ticks = faults.worst_round_ticks();
    if (ideal_rounds > ~std::uint64_t{0} / ticks)
        return ~std::uint64_t{0};  // saturate instead of overflowing
    return ideal_rounds * ticks;
}

std::vector<CrashPoint> parse_crash_spec(const std::string& spec)
{
    std::vector<CrashPoint> out;
    if (spec.empty() || spec == "none") return out;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        const std::size_t plus = spec.find('+', pos);
        const std::string part =
            spec.substr(pos, plus == std::string::npos ? std::string::npos : plus - pos);
        const std::size_t at = part.find('@');
        if (at == std::string::npos || at == 0 || at + 1 >= part.size()) {
            throw std::invalid_argument("crash spec: expected v@r[+v@r...], got \"" +
                                        spec + "\"");
        }
        CrashPoint cp;
        try {
            std::size_t used = 0;
            cp.vertex = static_cast<VertexId>(std::stoull(part.substr(0, at), &used));
            if (used != at) throw std::invalid_argument("trailing");
            cp.round = std::stoull(part.substr(at + 1), &used);
            if (used != part.size() - at - 1) throw std::invalid_argument("trailing");
        } catch (const std::exception&) {
            throw std::invalid_argument("crash spec: bad number in \"" + part + "\"");
        }
        if (cp.round == 0) {
            throw std::invalid_argument("crash spec: round must be >= 1 in \"" + part +
                                        "\"");
        }
        out.push_back(cp);
        if (plus == std::string::npos) break;
        pos = plus + 1;
        if (pos == spec.size()) {
            throw std::invalid_argument("crash spec: trailing '+' in \"" + spec + "\"");
        }
    }
    return out;
}

std::string crash_spec_string(const std::vector<CrashPoint>& crashes)
{
    if (crashes.empty()) return "none";
    std::ostringstream os;
    for (std::size_t i = 0; i < crashes.size(); ++i) {
        if (i) os << '+';
        os << crashes[i].vertex << '@' << crashes[i].round;
    }
    return os.str();
}

std::vector<CrashPoint> seeded_crashes(std::size_t n, std::size_t count,
                                       std::uint64_t max_round, std::uint64_t seed)
{
    if (n == 0 || max_round == 0) return {};
    count = std::min(count, n);
    std::vector<CrashPoint> out;
    std::vector<bool> used(n, false);
    std::uint64_t draw = 0;
    while (out.size() < count) {
        const std::uint64_t h =
            LinkConditioner::mix(seed ^ LinkConditioner::mix(kCrashStream ^ draw++));
        const VertexId v = static_cast<VertexId>(h % n);
        if (used[v]) continue;
        used[v] = true;
        const std::uint64_t r = 1 + (LinkConditioner::mix(h) % max_round);
        out.push_back(CrashPoint{v, r});
    }
    return out;
}

LinkFaults::LinkFaults(const WeightedGraph& g, FaultConfig config)
    : config_(std::move(config))
{
    if (!(config_.drop_rate >= 0.0) || config_.drop_rate >= 1.0) {
        throw std::invalid_argument("FaultConfig: drop_rate must be in [0, 1)");
    }
    if (config_.burst_len < 1) {
        throw std::invalid_argument("FaultConfig: burst_len must be >= 1");
    }
    for (const CrashPoint& cp : config_.crashes) {
        if (cp.vertex >= g.vertex_count()) {
            throw std::invalid_argument("FaultConfig: crash vertex out of range");
        }
        if (cp.round == 0) {
            throw std::invalid_argument("FaultConfig: crash round must be >= 1");
        }
    }
}

bool LinkFaults::transmission_lost(const FaultConfig& config, EdgeId e,
                                   int direction, int domain, std::uint64_t window)
{
    const std::uint64_t key = static_cast<std::uint64_t>(e) * 4 +
                              static_cast<std::uint64_t>(direction) * 2 +
                              static_cast<std::uint64_t>(domain);
    const std::uint64_t h =
        LinkConditioner::mix(config.loss_seed ^ LinkConditioner::mix(kLossStream ^ key) ^
                             LinkConditioner::mix(kWindowStream ^ window));
    return u01(h) < config.drop_rate;
}

FaultPlan LinkFaults::plan_transmission(EdgeId e, int direction,
                                        std::uint64_t& attempt_counter) const
{
    FaultPlan plan;
    const int burst = config_.burst_len;
    std::uint64_t t = 0;
    for (std::uint32_t k = 1;; ++k) {
        const std::uint64_t window = attempt_counter++ / static_cast<std::uint64_t>(burst);
        const bool forced = static_cast<int>(k) >= FaultConfig::kMaxAttempts;
        const bool data_lost =
            !forced && transmission_lost(config_, e, direction, /*domain=*/0, window);
        bool done = false;
        if (!data_lost) {
            if (plan.delivery == 0) plan.delivery = t + FaultConfig::kOneWay;
            ++plan.acks;
            const bool ack_lost =
                !forced && transmission_lost(config_, e, direction, /*domain=*/1, window);
            if (!ack_lost) {
                plan.attempts = k;
                done = true;
            } else {
                ++plan.drops;
            }
        } else {
            ++plan.drops;
        }
        if (done) break;
        ++plan.timeouts;
        ++plan.retransmissions;
        t += FaultConfig::rto(static_cast<int>(k), FaultConfig::kRtt);
    }
    return plan;
}

}  // namespace dmst
