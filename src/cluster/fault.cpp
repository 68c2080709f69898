#include "cluster/fault.hpp"

#include <chrono>
#include <thread>

#include "common/rng.hpp"
#include "obs/trace.hpp"

namespace qc::cluster {

bool retryable_fault(const std::exception_ptr& e) noexcept {
  if (e == nullptr) return false;
  try {
    std::rethrow_exception(e);
  } catch (const ClusterError& c) {
    return c.retryable();
  } catch (...) {
    return false;
  }
}

namespace {

std::atomic<FaultInjector*> g_injector{nullptr};

const char* action_name(FaultAction a) {
  switch (a) {
    case FaultAction::Delay: return "delay";
    case FaultAction::Drop: return "drop";
    case FaultAction::Abort: return "abort";
    case FaultAction::AllocFail: return "allocfail";
  }
  return "?";
}

FaultAction action_from(std::string_view name) {
  if (name == "delay") return FaultAction::Delay;
  if (name == "drop") return FaultAction::Drop;
  if (name == "abort") return FaultAction::Abort;
  if (name == "allocfail") return FaultAction::AllocFail;
  throw std::invalid_argument("fault spec: unknown action '" + std::string(name) +
                              "' (want delay|drop|abort|allocfail)");
}

std::uint64_t parse_u64(std::string_view token, const char* what) {
  if (token.empty()) throw std::invalid_argument(std::string("fault spec: empty ") + what);
  std::uint64_t v = 0;
  for (const char c : token) {
    if (c < '0' || c > '9')
      throw std::invalid_argument(std::string("fault spec: bad ") + what + " '" +
                                  std::string(token) + "'");
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

/// One `key=value` list (`seed=3,count=2`) into a map; values are u64.
std::map<std::string, std::uint64_t> parse_kv(std::string_view text) {
  std::map<std::string, std::uint64_t> kv;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find(',', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view item = text.substr(pos, end - pos);
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos)
      throw std::invalid_argument("fault spec: expected key=value, got '" +
                                  std::string(item) + "'");
    kv[std::string(item.substr(0, eq))] = parse_u64(item.substr(eq + 1), "value");
    pos = end + 1;
  }
  return kv;
}

FaultRule parse_rule(std::string_view entry) {
  const std::size_t at = entry.find('@');
  if (at == std::string_view::npos)
    throw std::invalid_argument("fault spec: entry '" + std::string(entry) +
                                "' lacks action@site");
  FaultRule rule;
  rule.action = action_from(entry.substr(0, at));
  std::string_view rest = entry.substr(at + 1);
  const std::size_t site_end = rest.find_first_of("#/:");
  rule.site = std::string(rest.substr(0, site_end));
  if (rule.site.empty()) throw std::invalid_argument("fault spec: empty site name");
  rest = site_end == std::string_view::npos ? std::string_view{} : rest.substr(site_end);
  while (!rest.empty()) {
    const char kind = rest.front();
    rest.remove_prefix(1);
    std::size_t end = rest.find_first_of("#/:");
    if (end == std::string_view::npos) end = rest.size();
    const std::string_view token = rest.substr(0, end);
    switch (kind) {
      case '#': rule.hit = parse_u64(token, "hit index"); break;
      case '/': rule.rank = static_cast<int>(parse_u64(token, "rank")); break;
      case ':': rule.delay_s = static_cast<double>(parse_u64(token, "delay_ms")) / 1e3; break;
      default: throw std::invalid_argument("fault spec: bad suffix");
    }
    rest = rest.substr(end);
  }
  return rule;
}

}  // namespace

FaultInjector FaultInjector::parse(std::string_view spec) {
  constexpr std::string_view kSeeded = "seeded:";
  if (spec.substr(0, kSeeded.size()) == kSeeded) {
    const auto kv = parse_kv(spec.substr(kSeeded.size()));
    const auto get = [&kv](const char* key, std::uint64_t fallback) {
      const auto it = kv.find(key);
      return it == kv.end() ? fallback : it->second;
    };
    return seeded(get("seed", 1), get("count", 3), static_cast<int>(get("ranks", 4)),
                  static_cast<double>(get("delay_ms", 200)) / 1e3);
  }
  std::vector<FaultRule> rules;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t end = spec.find(';', pos);
    if (end == std::string_view::npos) end = spec.size();
    const std::string_view entry = spec.substr(pos, end - pos);
    if (!entry.empty()) rules.push_back(parse_rule(entry));
    pos = end + 1;
  }
  if (rules.empty()) throw std::invalid_argument("fault spec: no rules");
  return FaultInjector(std::move(rules));
}

FaultInjector FaultInjector::seeded(std::uint64_t seed, std::size_t count, int ranks,
                                    double delay_s) {
  const std::vector<std::string>& sites = known_fault_sites();
  Rng rng(seed);
  std::vector<FaultRule> rules;
  rules.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    FaultRule rule;
    rule.site = sites[rng.uniform_u64(sites.size())];
    // Alloc-fail only makes sense where something is allocated; keep
    // the other sites on the transport-shaped actions.
    if (rule.site == "dist.alloc") {
      rule.action = FaultAction::AllocFail;
    } else {
      constexpr FaultAction kActions[] = {FaultAction::Delay, FaultAction::Drop,
                                          FaultAction::Abort};
      rule.action = kActions[rng.uniform_u64(3)];
    }
    rule.hit = rng.uniform_u64(4);
    // rank -1 (any) with probability 1/(ranks+1).
    rule.rank = static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(ranks) + 1)) - 1;
    rule.delay_s = delay_s;
    rules.push_back(std::move(rule));
  }
  return FaultInjector(std::move(rules));
}

std::optional<FaultAction> FaultInjector::visit(std::string_view site, int rank,
                                                double* delay_s) {
  std::lock_guard lock(mutex_);
  const std::uint64_t count = visits_[{std::string(site), rank}]++;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const FaultRule& rule = rules_[i];
    if (rule.site != site) continue;
    if (rule.rank != -1 && rule.rank != rank) continue;
    if (rule.hit != count) continue;
    // Disruptive rules (abort/drop/alloc-fail) are one-shot: the first
    // rank to reach `hit` fires them, then they are spent. Without
    // this, an any-rank abort re-fires on every recovery attempt — the
    // peers it aborted never reached their own visit, so their pending
    // hit lands on the *retry's* jobs, and one scheduled fault cascades
    // into ranks-many faults that exhaust any fixed retry budget.
    // Delay rules never disturb peer progress, so they stay per-rank.
    if (rule.action != FaultAction::Delay && rule_fired_[i] > 0) continue;
    ++rule_fired_[i];
    ++fired_;
    if (delay_s != nullptr) *delay_s = rule.delay_s;
    return rule.action;
  }
  return std::nullopt;
}

std::uint64_t FaultInjector::fired() const noexcept {
  std::lock_guard lock(mutex_);
  return fired_;
}

std::map<std::pair<std::string, int>, std::uint64_t> FaultInjector::visits() const {
  std::lock_guard lock(mutex_);
  return visits_;
}

void FaultInjector::reset() {
  std::lock_guard lock(mutex_);
  visits_.clear();
  rule_fired_.assign(rules_.size(), 0);
  fired_ = 0;
}

std::string FaultInjector::to_string() const {
  std::string out;
  for (const FaultRule& rule : rules_) {
    if (!out.empty()) out += ';';
    out += action_name(rule.action);
    out += '@';
    out += rule.site;
    out += '#';
    out += std::to_string(rule.hit);
    if (rule.rank != -1) {
      out += '/';
      out += std::to_string(rule.rank);
    }
    if (rule.action == FaultAction::Delay) {
      out += ':';
      out += std::to_string(static_cast<std::uint64_t>(rule.delay_s * 1e3));
    }
  }
  return out;
}

FaultInjector* current_injector() noexcept {
  return g_injector.load(std::memory_order_acquire);
}

void set_current_injector(FaultInjector* inj) noexcept {
  g_injector.store(inj, std::memory_order_release);
}

bool fault_point(std::string_view site, int rank, bool can_drop) {
  // Acquire pairs with set_current_injector's release store: a rank
  // thread that sees the pointer must also see the injector's rules.
  FaultInjector* inj = g_injector.load(std::memory_order_acquire);
  if (inj == nullptr) return false;
  double delay_s = 0;
  const std::optional<FaultAction> action = inj->visit(site, rank, &delay_s);
  if (!action.has_value()) return false;
  obs::counter_add("fault.injected", 1);
  const std::string where = std::string(site) + " (rank " + std::to_string(rank) + ")";
  switch (*action) {
    case FaultAction::Delay:
      obs::instant("fault.delay");
      std::this_thread::sleep_for(std::chrono::duration<double>(delay_s));
      return false;
    case FaultAction::Drop:
      if (can_drop) {
        obs::counter_add("fault.dropped", 1);
        return true;
      }
      throw InjectedFault("injected fault (drop escalated to abort) at " + where);
    case FaultAction::Abort:
      throw InjectedFault("injected fault at " + where);
    case FaultAction::AllocFail:
      throw AllocFailure("injected allocation failure at " + where);
  }
  return false;
}

const std::vector<std::string>& known_fault_sites() {
  static const std::vector<std::string> kSites = {
      "cluster.send",  "cluster.recv",  "cluster.barrier",    "cluster.allgather",
      "cluster.job",   "dist.alloc",    "dist.exchange",      "dist.exchange_pass",
      "dist.scatter",  "dist.gather",
  };
  return kSites;
}

}  // namespace qc::cluster
