#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "api/dispatcher.hpp"
#include "api/key_delivery.hpp"
#include "common/entropy.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "corpus.hpp"
#include "engine/engine.hpp"
#include "hetero/device_set.hpp"
#include "network/delivery.hpp"
#include "network/topology.hpp"
#include "pipeline/session.hpp"
#include "protocol/auth_channel.hpp"
#include "protocol/reliable_channel.hpp"
#include "service/link_orchestrator.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "traced_channel.hpp"

namespace perfbench {

using qkdpp::BitVec;

namespace {

namespace api = qkdpp::api;
namespace auth = qkdpp::auth;
namespace hetero = qkdpp::hetero;
namespace network = qkdpp::network;
namespace protocol = qkdpp::protocol;
namespace service = qkdpp::service;

// Every key request asks for two 256-bit keys (the ETSI default size).
constexpr std::uint64_t kKeyBits = 256;
constexpr std::uint64_t kKeysPerRequest = 2;
constexpr std::uint64_t kRequestBits = kKeyBits * kKeysPerRequest;
// Pre-shared Wegman-Carter key per direction per block: 1024 tags, far
// above the few dozen messages a metro block exchanges.
constexpr std::size_t kAuthPoolBits = std::size_t{1} << 18;
constexpr std::size_t kMaxTraceEvents = 100000;
// The session's known reconciliation abort, and the most blocks of a link it
// may take out of the timed schedule (measured: at most 2 of 64 per seed).
constexpr const char* kSessionReconcileDefect = "no reconciled frames";
constexpr std::size_t kMaxLeftOut = 4;
constexpr std::uint32_t kClientLane = 500;
constexpr std::uint32_t kBobLaneBase = 100;

enum class Mode { kEngine, kSession };

struct PairPlan {
  std::string master;
  std::string slave;
  std::vector<std::size_t> links;  ///< source links, in hop order
  std::string src_node;            ///< relayed pairs only
  std::string dst_node;
};

struct EdgePlan {
  std::string a;
  std::string b;
  std::size_t link = 0;
};

struct WorkloadPlan {
  Mode mode = Mode::kEngine;
  std::vector<LinkProfile> links;
  std::size_t blocks_per_link = 0;
  /// Engines share one DeviceSet and pairs are served over a Topology.
  bool fleet = false;
  std::vector<std::string> nodes;
  std::vector<EdgePlan> edges;
  std::vector<PairPlan> pairs;
  /// Worker threads of the cpu-parallel device pool.
  std::size_t device_threads = 1;
};

WorkloadPlan plan_for(const std::string& name) {
  WorkloadPlan plan;
  if (name == "metro-engine" || name == "metro-session") {
    plan.mode = name == "metro-engine" ? Mode::kEngine : Mode::kSession;
    plan.links = {{"metro", 25.0, 0.015}};
    plan.blocks_per_link = 64;
    plan.pairs = {{"sae-alice", "sae-bob", {0}, "", ""}};
    // Link thread + 2 pool workers + the SAE client = 4 load threads.
    plan.device_threads = 2;
    return plan;
  }
  if (name == "fleet-mixed") {
    plan.mode = Mode::kEngine;
    plan.fleet = true;
    plan.links = {{"hot-ab", 25.0, 0.035},
                  {"metro-bc", 10.0, 0.015},
                  {"metro-cd", 20.0, 0.015}};
    plan.blocks_per_link = 24;
    plan.nodes = {"a", "b", "c", "d"};
    plan.edges = {{"a", "b", 0}, {"b", "c", 1}, {"c", "d", 2}};
    // One consumer per link store keeps every pair's delivered stream a
    // deterministic function of the seed: the adjacent pair drains the hot
    // link, the relayed pair (b -> c -> d) drains both metro links.
    plan.pairs = {{"sae-a", "sae-b", {0}, "", ""},
                  {"sae-b", "sae-d", {1, 2}, "b", "d"}};
    plan.device_threads = 1;
    return plan;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

struct Distillers {
  std::shared_ptr<hetero::DeviceSet> shared;
  std::vector<std::unique_ptr<engine::PostprocessEngine>> engines;
  double construct_ms = 0.0;

  std::vector<std::pair<std::string, double>> device_busy() const {
    std::vector<std::pair<std::string, double>> busy;
    if (shared) {
      for (std::size_t d = 0; d < shared->size(); ++d) {
        busy.emplace_back(shared->device(d).name(),
                          shared->device(d).busy_seconds());
      }
      return busy;
    }
    for (const auto& engine : engines) {
      for (const auto& report : engine->device_report()) {
        auto it = std::find_if(busy.begin(), busy.end(), [&](const auto& e) {
          return e.first == report.name;
        });
        if (it == busy.end()) {
          busy.emplace_back(report.name, report.busy_seconds);
        } else {
          it->second += report.busy_seconds;
        }
      }
    }
    return busy;
  }
};

Distillers build_distillers(const WorkloadPlan& plan,
                            const engine::PostprocessParams& params) {
  Distillers d;
  if (plan.mode != Mode::kEngine) return d;
  const std::int64_t start = now_ns();
  const std::vector<hetero::DeviceProps> roster = {
      hetero::cpu_scalar_props(),
      hetero::cpu_parallel_props(plan.device_threads)};
  if (plan.fleet) {
    d.shared = std::make_shared<hetero::DeviceSet>(roster, plan.device_threads);
  }
  for (std::size_t l = 0; l < plan.links.size(); ++l) {
    engine::EngineOptions options;
    options.policy = engine::PlacementPolicy::kOptimized;
    options.threads = plan.device_threads;
    if (d.shared) {
      options.shared_devices = d.shared;
    } else {
      options.devices = roster;
    }
    d.engines.push_back(
        std::make_unique<engine::PostprocessEngine>(params, options));
  }
  d.construct_ms = static_cast<double>(now_ns() - start) / 1e6;
  return d;
}

/// The key-management and delivery side, rebuilt for every phase so each
/// phase's delivered stream starts from empty stores and buffers.
struct DeliveryStack {
  std::unique_ptr<service::LinkOrchestrator> orchestrator;
  std::unique_ptr<network::Topology> topology;
  std::unique_ptr<api::KeyDeliveryService> service;
  std::unique_ptr<network::NetworkDelivery> network;
  std::unique_ptr<api::Dispatcher> dispatcher;
  /// Per pair: the relay source, or null for an adjacent pair.
  std::vector<std::shared_ptr<const network::RelaySource>> relays;
};

DeliveryStack build_delivery(const WorkloadPlan& plan,
                             const std::vector<LinkCorpus>& corpus,
                             const engine::PostprocessParams& params,
                             std::uint64_t uuid_seed) {
  DeliveryStack stack;
  service::OrchestratorConfig config;
  // The orchestrator never runs: it only owns the per-link stores the
  // benchmark deposits into and the link health the router reads. Its own
  // engines sit on a one-device roster so they spawn no threads.
  config.devices = {hetero::cpu_scalar_props()};
  config.device_threads = 1;
  for (const LinkCorpus& lc : corpus) {
    service::LinkSpec spec;
    spec.name = lc.profile.name;
    spec.link = lc.link;
    spec.params = params;
    spec.pulses_per_block = lc.pulses_per_block;
    spec.blocks = 0;
    config.links.push_back(std::move(spec));
  }
  stack.orchestrator =
      std::make_unique<service::LinkOrchestrator>(std::move(config));
  api::KeyDeliveryConfig delivery;
  delivery.uuid_seed = uuid_seed;
  stack.service = std::make_unique<api::KeyDeliveryService>(
      *stack.orchestrator, delivery);
  if (plan.fleet) {
    stack.topology = std::make_unique<network::Topology>(*stack.orchestrator);
    for (const auto& node : plan.nodes) stack.topology->add_node(node);
    for (const auto& edge : plan.edges) {
      stack.topology->add_edge(edge.a, edge.b, plan.links[edge.link].name);
    }
    stack.network = std::make_unique<network::NetworkDelivery>(
        *stack.topology, *stack.service);
  }
  for (const PairPlan& pair : plan.pairs) {
    api::SaePair spec;
    spec.master_sae_id = pair.master;
    spec.slave_sae_id = pair.slave;
    spec.default_key_size = kKeyBits;
    if (pair.links.size() == 1) {
      spec.link_name = plan.links[pair.links[0]].name;
      stack.service->register_pair(spec);
      stack.relays.push_back(nullptr);
    } else {
      stack.network->register_pair(spec, pair.src_node, pair.dst_node);
      stack.relays.push_back(
          stack.network->source(pair.master, pair.slave));
    }
  }
  stack.dispatcher = std::make_unique<api::Dispatcher>(*stack.service);
  return stack;
}

struct BlockRecord {
  std::size_t link = 0;
  std::size_t index = 0;  ///< position in the link's corpus
  bool ok = false;
  std::string abort_reason;
  double latency_ms = 0.0;  ///< detections handed over -> key accepted
  double distill_ms = 0.0;  ///< process_block, or the Alice session call
  double deposit_us = 0.0;
  std::uint64_t final_bits = 0;
  std::uint64_t ones = 0;
  std::uint64_t leak_ec = 0;
  std::uint64_t reconciled = 0;
  double qber_true = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t iterations = 0;
  std::uint64_t rounds = 0;
  std::uint64_t early_exit = 0;
  engine::StageTimings timings;
  std::uint64_t store_bits = 0;  ///< store depth right after the deposit
  // Two-party session only.
  std::uint64_t messages = 0;     ///< application messages, both sides
  std::uint64_t round_trips = 0;  ///< Alice waits for an answer
  std::uint64_t bytes = 0;        ///< wire bytes, both sides
  std::uint64_t retransmits = 0;
  std::uint64_t auth_bits = 0;    ///< Wegman-Carter key consumed
};

// Kept compact: a run records tens of thousands of these, and their memory
// must stay small next to rss_growth_mb.
struct RequestRecord {
  std::uint32_t pair = 0;
  bool enc = true;
  bool ok = false;
  float us = 0.0f;
  std::uint32_t response_bytes = 0;
};

struct PhaseOptions {
  bool time_bound = false;  ///< false: exactly one round of the corpus
  double seconds = 0.0;
  bool traced = false;
  /// Per link, per corpus block: left out of the schedule.
  std::vector<std::vector<bool>> excluded;
  /// Per pair: how many enc_keys requests enter the digest (0 = all).
  std::vector<std::uint64_t> digest_requests;
};

struct PhaseResult {
  double wall_s = 0.0;
  std::vector<BlockRecord> blocks;
  std::vector<RequestRecord> requests;
  std::uint64_t matched_bits = 0;
  std::vector<std::uint64_t> pair_requests;  ///< enc_keys served, per pair
  std::vector<std::uint64_t> pair_digest;
  std::vector<std::pair<std::string, double>> device_busy_s;
  std::uint64_t relayed_bits = 0;
  std::uint64_t reroutes = 0;
  std::vector<Span> spans;

  std::uint64_t blocks_ok() const {
    return static_cast<std::uint64_t>(std::count_if(
        blocks.begin(), blocks.end(), [](const auto& b) { return b.ok; }));
  }
  double blocks_per_s() const {
    return wall_s > 0 ? static_cast<double>(blocks_ok()) / wall_s : 0.0;
  }
};

std::unique_ptr<protocol::ClassicalChannel> session_stack(
    std::unique_ptr<protocol::ClassicalChannel> raw, auth::KeyPool& send,
    auth::KeyPool& recv, std::uint64_t jitter_seed, bool traced,
    TracedChannel** top) {
  if (!traced) {
    *top = nullptr;
    return std::make_unique<protocol::AuthenticatedChannel>(
        std::make_unique<protocol::ReliableChannel>(
            std::move(raw), protocol::RetryPolicy{}, jitter_seed),
        send, recv);
  }
  auto raw_traced =
      std::make_unique<TracedChannel>(std::move(raw), "raw.send", "raw.recv");
  auto arq = std::make_unique<protocol::ReliableChannel>(
      std::move(raw_traced), protocol::RetryPolicy{}, jitter_seed);
  auto arq_traced =
      std::make_unique<TracedChannel>(std::move(arq), "arq.send", "arq.recv");
  auto authenticated = std::make_unique<protocol::AuthenticatedChannel>(
      std::move(arq_traced), send, recv);
  auto out = std::make_unique<TracedChannel>(std::move(authenticated),
                                             "auth.send", "auth.recv");
  *top = out.get();
  return out;
}

class Phase {
 public:
  Phase(const WorkloadPlan& plan, const std::vector<LinkCorpus>& corpus,
        const std::vector<std::vector<std::pair<BitVec, BitVec>>>& auth_keys,
        const engine::PostprocessParams& params, Distillers& distillers,
        DeliveryStack& stack, DeliveryLedger& ledger, PhaseOptions options)
      : plan_(plan),
        corpus_(corpus),
        auth_keys_(auth_keys),
        params_(params),
        distillers_(distillers),
        stack_(stack),
        ledger_(ledger),
        options_(std::move(options)),
        deposited_(plan.links.size()),
        link_blocks_(plan.links.size()),
        link_checks_(plan.links.size()) {
    for (auto& d : deposited_) d.store(0);
  }

  PhaseResult run(Checks& checks) {
    tracer().set_enabled(options_.traced);
    const auto busy_before = distillers_.device_busy();
    const std::uint64_t matched_before = ledger_.matched_bits();
    start_ns_ = now_ns();
    std::vector<std::thread> links;
    for (std::size_t l = 0; l < plan_.links.size(); ++l) {
      links.emplace_back([this, l] { link_loop(l); });
    }
    std::thread client([this] { client_loop(); });
    for (auto& thread : links) thread.join();
    client.join();
    PhaseResult result;
    result.wall_s = static_cast<double>(now_ns() - start_ns_) / 1e9;
    tracer().set_enabled(false);

    for (std::size_t l = 0; l < plan_.links.size(); ++l) {
      result.blocks.insert(result.blocks.end(), link_blocks_[l].begin(),
                           link_blocks_[l].end());
      for (const auto& failure : link_checks_[l].failures()) {
        checks.fail(failure);
      }
    }
    for (const auto& failure : client_checks_.failures()) checks.fail(failure);
    result.requests = std::move(requests_);
    result.matched_bits = ledger_.matched_bits() - matched_before;
    result.pair_requests = pair_requests_;
    result.pair_digest = pair_digest_;
    const auto busy_after = distillers_.device_busy();
    for (std::size_t d = 0; d < busy_after.size(); ++d) {
      result.device_busy_s.emplace_back(
          busy_after[d].first, busy_after[d].second - busy_before[d].second);
    }
    for (const auto& relay : stack_.relays) {
      if (!relay) continue;
      const auto stats = relay->stats();
      result.relayed_bits += stats.relayed_bits;
      result.reroutes += stats.reroutes;
    }
    for (std::size_t l = 0; l < plan_.links.size(); ++l) {
      auto& store = stack_.orchestrator->key_store(l);
      check_conservation(checks, plan_.links[l].name,
                         store.total_deposited_bits(),
                         store.draw_accounting(), store.bits_available());
    }
    if (options_.traced) result.spans = tracer().take();
    return result;
  }

 private:
  void link_loop(std::size_t l) {
    set_thread_lane(static_cast<std::uint32_t>(l + 1));
    const LinkCorpus& lc = corpus_[l];
    std::uint64_t sequence = 0;
    const std::vector<bool> none(lc.blocks.size(), false);
    const std::vector<bool>& excluded =
        l < options_.excluded.size() ? options_.excluded[l] : none;
    const bool any_scheduled =
        std::find(excluded.begin(), excluded.end(), false) != excluded.end();
    for (std::uint64_t round = 0; any_scheduled; ++round) {
      for (std::size_t k = 0; k < lc.blocks.size(); ++k) {
        if (excluded[k]) continue;
        set_thread_block(((l + 1) << 40) | ++sequence);
        link_blocks_[l].push_back(distill(l, k));
      }
      const double elapsed = static_cast<double>(now_ns() - start_ns_) / 1e9;
      if (!options_.time_bound || elapsed >= options_.seconds) break;
    }
    std::scoped_lock lock(mutex_);
    ++finished_links_;
    ++version_;
    progress_.notify_all();
  }

  BlockRecord distill(std::size_t l, std::size_t k) {
    const CorpusBlock& block = corpus_[l].blocks[k];
    Checks& checks = link_checks_[l];
    BlockRecord record;
    record.link = l;
    record.index = k;
    record.qber_true = block.truth.signal_qber();
    // The measured window holds the distillation call and the deposit
    // only; the checks on the outcome run after it closes.
    BitVec key;
    double qber_estimate = 0.0;
    qkdpp::pipeline::DepositResult deposited;
    const std::int64_t start = now_ns();
    {
      ScopedSpan block_span("block");
      record.ok =
          plan_.mode == Mode::kEngine
              ? distill_engine(l, block, record, key, qber_estimate)
              : distill_session(l, k, block, block_span.id(), record, key,
                                qber_estimate, checks);
      if (record.ok) {
        record.final_bits = key.size();
        record.ones = key.popcount();
        auto& store = stack_.orchestrator->key_store(l);
        const std::int64_t deposit_start = now_ns();
        {
          ScopedSpan span("kms.deposit");
          deposited = store.deposit(std::move(key));
        }
        record.deposit_us =
            static_cast<double>(now_ns() - deposit_start) / 1e3;
        record.store_bits = store.bits_available();
      }
    }
    record.latency_ms = static_cast<double>(now_ns() - start) / 1e6;
    if (record.ok) {
      check_amplification(checks, block.block_id, record.final_bits,
                          record.leak_ec, record.reconciled);
      check_qber(checks, block.block_id, qber_estimate, block.truth,
                 params_.pe_fraction);
      record.ok = checks.expect(
          deposited.accepted(),
          plan_.links[l].name + " block " + std::to_string(block.block_id) +
              ": deposit refused (" +
              std::string(to_string(deposited.reason)) + ")");
    }
    if (record.ok) {
      // relaxed: the client reads it after taking mutex_, which orders it.
      deposited_[l].fetch_add(record.final_bits, std::memory_order_relaxed);
      std::scoped_lock lock(mutex_);
      ++version_;
      progress_.notify_all();
    }
    return record;
  }

  bool distill_engine(std::size_t l, const CorpusBlock& block,
                      BlockRecord& record, BitVec& key, double& qber) {
    qkdpp::Xoshiro256 rng(block.rng_seed);
    engine::BlockOutcome outcome;
    const std::int64_t start = now_ns();
    {
      ScopedSpan span("engine.process_block");
      outcome =
          distillers_.engines[l]->process_block(block.input, block.block_id,
                                                rng);
      if (tracer().enabled()) record_stage_spans(span, outcome.timings);
    }
    record.distill_ms = static_cast<double>(now_ns() - start) / 1e6;
    record.timings = outcome.timings;
    record.leak_ec = outcome.leak_ec_bits;
    record.reconciled = outcome.reconciled_bits;
    record.frames = outcome.reconcile_frames;
    record.iterations = outcome.decoder_iterations;
    record.rounds = outcome.reconcile_rounds;
    record.early_exit = outcome.reconcile_early_exit_frames;
    qber = outcome.qber_estimate;
    if (!outcome.success) {
      record.abort_reason = outcome.abort_reason;
      return false;
    }
    key = std::move(outcome.final_key);
    return true;
  }

  /// The engine measures each stage itself; its five durations become
  /// synthetic child spans laid out in stage order from the call's start.
  static void record_stage_spans(const ScopedSpan& parent,
                                 const engine::StageTimings& timings) {
    static constexpr const char* kNames[] = {"engine.sift", "engine.estimate",
                                             "engine.reconcile",
                                             "engine.verify", "engine.amplify"};
    const double seconds[] = {timings.sift, timings.estimate,
                              timings.reconcile, timings.verify,
                              timings.amplify};
    std::int64_t cursor = parent.start_ns();
    for (std::size_t s = 0; s < 5; ++s) {
      Span span;
      span.id = tracer().next_id();
      span.parent = parent.id();
      span.block = thread_block();
      span.thread = thread_lane();
      span.name = kNames[s];
      span.start_ns = cursor;
      span.end_ns = cursor + static_cast<std::int64_t>(seconds[s] * 1e9);
      span.synthetic = true;
      cursor = span.end_ns;
      tracer().record(span);
    }
  }

  bool distill_session(std::size_t l, std::size_t k, const CorpusBlock& block,
                       std::uint64_t block_span, BlockRecord& record,
                       BitVec& key, double& qber, Checks& checks) {
    const auto& [a2b, b2a] = auth_keys_[l][k];
    auth::KeyPool alice_send(a2b), bob_recv(a2b), bob_send(b2a),
        alice_recv(b2a);
    auto [raw_alice, raw_bob] = protocol::make_channel_pair();
    const bool traced = tracer().enabled();
    TracedChannel* alice_top = nullptr;
    TracedChannel* bob_top = nullptr;
    auto alice_channel =
        session_stack(std::move(raw_alice), alice_send, alice_recv,
                      mix_seed(block.rng_seed, 3), traced, &alice_top);
    auto bob_channel =
        session_stack(std::move(raw_bob), bob_send, bob_recv,
                      mix_seed(block.rng_seed, 4), traced, &bob_top);

    const std::uint64_t block_id = thread_block();
    const auto bob_lane = static_cast<std::uint32_t>(kBobLaneBase + l);
    auto bob_future = std::async(std::launch::async, [&] {
      set_thread_lane(bob_lane);
      set_thread_block(block_id);
      ScopedSpan span("session.bob", block_span);
      auto result =
          qkdpp::pipeline::run_bob_session(*bob_channel, block.bob, params_);
      // Close inside the task: close() lingers to heal a lost final frame,
      // which only helps while Alice is still listening.
      bob_channel->close();
      return result;
    });
    qkdpp::Xoshiro256 rng(block.rng_seed);
    const std::int64_t start = now_ns();
    qkdpp::pipeline::SessionResult alice;
    {
      ScopedSpan span("session.alice");
      alice = qkdpp::pipeline::run_alice_session(
          *alice_channel, block.input.log, block.block_id, params_, rng);
      alice_channel->close();
    }
    record.distill_ms = static_cast<double>(now_ns() - start) / 1e6;
    const qkdpp::pipeline::SessionResult bob = bob_future.get();

    record.leak_ec = alice.leak_ec_bits;
    record.reconciled = alice.reconciled_bits;
    record.bytes = alice.channel.bytes_sent + bob.channel.bytes_sent;
    record.retransmits = alice.channel.retransmits + bob.channel.retransmits;
    record.auth_bits =
        alice_send.total_consumed() + alice_recv.total_consumed();
    if (alice_top != nullptr && bob_top != nullptr) {
      record.messages = alice_top->sends() + bob_top->sends();
      record.round_trips = alice_top->round_trips();
    }
    qber = alice.qber_estimate;
    const std::string id =
        plan_.links[l].name + " block " + std::to_string(block.block_id);
    checks.expect(alice.success == bob.success,
                  id + ": Alice and Bob disagree on success");
    if (!alice.success || !bob.success) {
      record.abort_reason =
          alice.success ? bob.abort_reason : alice.abort_reason;
      return false;
    }
    if (!checks.expect(alice.final_key == bob.final_key,
                       id + ": Alice's key differs from Bob's")) {
      return false;
    }
    key = std::move(alice.final_key);
    return true;
  }

  // --- SAE client -----------------------------------------------------------

  std::uint64_t available_bits(const PairPlan& pair) const {
    std::uint64_t bits = UINT64_MAX;
    for (const std::size_t l : pair.links) {
      // relaxed: read after mutex_ was taken in client_loop (see there).
      bits = std::min(bits, deposited_[l].load(std::memory_order_relaxed));
    }
    return bits;
  }

  void client_loop() {
    set_thread_lane(kClientLane);
    const std::size_t pairs = plan_.pairs.size();
    pair_requests_.assign(pairs, 0);
    pair_digest_.assign(pairs, kFnvOffset);
    std::vector<std::uint64_t> requested(pairs, 0);
    std::vector<std::string> enc_requests;
    for (const PairPlan& pair : plan_.pairs) {
      api::KeyRequest request;
      request.number = kKeysPerRequest;
      request.size = kKeyBits;
      enc_requests.push_back(
          api::Request{"POST", "/api/v1/keys/" + pair.slave + "/enc_keys",
                       pair.master, request.to_json()}
              .to_json()
              .dump());
    }
    std::uint64_t sequence = 0;
    while (true) {
      std::uint64_t seen = 0;
      bool done = false;
      {
        std::scoped_lock lock(mutex_);
        seen = version_;
        done = finished_links_ == plan_.links.size();
      }
      // Requests never ask for more key than has been deposited for the
      // pair, so a healthy run sees no refusal.
      bool served = false;
      for (std::size_t p = 0; p < pairs; ++p) {
        if (available_bits(plan_.pairs[p]) < requested[p] + kRequestBits) {
          continue;
        }
        requested[p] += kRequestBits;
        set_thread_block((std::uint64_t{1} << 62) | ++sequence);
        request_pair(p, enc_requests[p]);
        served = true;
      }
      if (served) continue;
      if (done) break;
      std::unique_lock lock(mutex_);
      progress_.wait(lock, [&] { return version_ != seen; });
    }
  }

  std::string dispatch(const std::string& text, const char* name) {
    if (!tracer().enabled()) return stack_.dispatcher->dispatch(text);
    // The same steps Dispatcher::dispatch(std::string_view) takes, spanned
    // one by one so codec and service time separate.
    ScopedSpan root(name);
    api::Json parsed;
    {
      ScopedSpan span("api.json.parse");
      parsed = api::Json::parse(text);
    }
    api::Request request;
    {
      ScopedSpan span("api.request.from_json");
      request = api::Request::from_json(parsed);
    }
    api::Response response;
    {
      ScopedSpan span("api.dispatch");
      response = stack_.dispatcher->dispatch(request);
    }
    api::Json serialized;
    {
      ScopedSpan span("api.response.to_json");
      serialized = response.to_json();
    }
    ScopedSpan span("api.json.dump");
    return serialized.dump();
  }

  void request_pair(std::size_t p, const std::string& enc_request) {
    const PairPlan& pair = plan_.pairs[p];
    const std::string pair_name = pair.master + "/" + pair.slave;
    RequestRecord enc;
    enc.pair = static_cast<std::uint32_t>(p);
    std::int64_t start = now_ns();
    const std::string enc_text = dispatch(enc_request, "api.enc_keys");
    enc.us = static_cast<float>(now_ns() - start) / 1e3f;
    enc.response_bytes = static_cast<std::uint32_t>(enc_text.size());
    const auto enc_response =
        api::Response::from_json(api::Json::parse(enc_text));
    enc.ok = enc_response.ok();
    requests_.push_back(enc);
    if (!client_checks_.expect(enc.ok, pair_name + ": enc_keys refused: " +
                                           enc_response.body.dump())) {
      return;
    }
    const auto keys = api::KeyContainer::from_json(enc_response.body);
    api::KeyIdsRequest ids;
    const std::uint64_t limit =
        p < options_.digest_requests.size() ? options_.digest_requests[p] : 0;
    const bool digest = limit == 0 || pair_requests_[p] < limit;
    for (const auto& key : keys.keys) {
      ledger_.record_enc(pair_name, key.key_id, key.key);
      ids.key_ids.push_back(key.key_id);
      if (digest) pair_digest_[p] = fnv1a(pair_digest_[p], key.key);
    }
    ++pair_requests_[p];
    client_checks_.expect(keys.keys.size() == kKeysPerRequest,
                          pair_name + ": enc_keys returned " +
                              std::to_string(keys.keys.size()) + " keys");

    const std::string dec_request =
        api::Request{"POST", "/api/v1/keys/" + pair.master + "/dec_keys",
                     pair.slave, ids.to_json()}
            .to_json()
            .dump();
    RequestRecord dec;
    dec.pair = static_cast<std::uint32_t>(p);
    dec.enc = false;
    start = now_ns();
    const std::string dec_text = dispatch(dec_request, "api.dec_keys");
    dec.us = static_cast<float>(now_ns() - start) / 1e3f;
    dec.response_bytes = static_cast<std::uint32_t>(dec_text.size());
    const auto dec_response =
        api::Response::from_json(api::Json::parse(dec_text));
    dec.ok = dec_response.ok();
    requests_.push_back(dec);
    if (!client_checks_.expect(dec.ok, pair_name + ": dec_keys refused: " +
                                           dec_response.body.dump())) {
      return;
    }
    for (const auto& key :
         api::KeyContainer::from_json(dec_response.body).keys) {
      ledger_.record_dec(pair_name, key.key_id, key.key);
    }
  }

  const WorkloadPlan& plan_;
  const std::vector<LinkCorpus>& corpus_;
  const std::vector<std::vector<std::pair<BitVec, BitVec>>>& auth_keys_;
  const engine::PostprocessParams& params_;
  Distillers& distillers_;
  DeliveryStack& stack_;
  DeliveryLedger& ledger_;
  PhaseOptions options_;
  std::int64_t start_ns_ = 0;

  std::mutex mutex_;
  std::condition_variable progress_;
  std::uint64_t version_ = 0;       // guarded by mutex_
  std::size_t finished_links_ = 0;  // guarded by mutex_
  std::vector<std::atomic<std::uint64_t>> deposited_;  ///< bits, per link

  // Single-writer state: each link thread owns its slot, the client its own.
  std::vector<std::vector<BlockRecord>> link_blocks_;
  std::vector<Checks> link_checks_;
  Checks client_checks_;
  std::vector<RequestRecord> requests_;
  std::vector<std::uint64_t> pair_requests_;
  std::vector<std::uint64_t> pair_digest_;
};

std::uint64_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  }
  return 0;
}

using Samples = qkdpp::PercentileSampler;

/// Nearest-rank percentile, 0 for an empty sample.
double percentile(const Samples& samples, double q) {
  return samples.count() ? samples.percentile(q) : 0.0;
}

Samples field(const std::vector<BlockRecord>& blocks,
              double (*get)(const BlockRecord&)) {
  Samples out;
  for (const auto& b : blocks) {
    if (b.ok) out.add(get(b));
  }
  return out;
}

Samples request_us(const PhaseResult& phase, bool enc,
                   std::size_t pair = SIZE_MAX) {
  Samples out;
  for (const auto& r : phase.requests) {
    if (r.enc == enc && (pair == SIZE_MAX || r.pair == pair)) out.add(r.us);
  }
  return out;
}

void add(RunOutput& out, std::string name, double value, std::string unit) {
  out.metrics.push_back({std::move(name), value, std::move(unit)});
}

void end_to_end_metrics(RunOutput& out, const PhaseResult& phase,
                        double setup_s, double rss_growth_mb) {
  const std::uint64_t ok = phase.blocks_ok();
  std::uint64_t final_bits = 0;
  for (const auto& b : phase.blocks) final_bits += b.final_bits;
  const auto latency =
      field(phase.blocks, [](const BlockRecord& b) { return b.latency_ms; });
  const auto enc = request_us(phase, true);
  const auto dec = request_us(phase, false);
  add(out, "secret_bits_per_s",
      static_cast<double>(phase.matched_bits) / phase.wall_s, "bit/s");
  add(out, "blocks_per_s", phase.blocks_per_s(), "block/s");
  add(out, "secret_bits_per_block",
      ok ? static_cast<double>(final_bits) / static_cast<double>(ok) : 0.0,
      "bit");
  // The median is reported as a note only: per-block latency is bimodal on
  // metro-* (blocks whose frames all converge at the first decode attempt
  // and blocks that need blind rounds), the seed moves the share of each
  // mode, and the median jumps between them.
  char median[96];
  std::snprintf(median, sizeof median,
                "block latency p50 %.3f ms (not gated, see README)",
                percentile(latency, 0.50));
  out.notes.push_back(median);
  add(out, "block_latency_p90_ms", percentile(latency, 0.90), "ms");
  add(out, "enc_keys_p50_us", percentile(enc, 0.50), "us");
  add(out, "enc_keys_p99_us", percentile(enc, 0.99), "us");
  add(out, "dec_keys_p50_us", percentile(dec, 0.50), "us");
  add(out, "dec_keys_p99_us", percentile(dec, 0.99), "us");
  add(out, "setup_s", setup_s, "s");
  // A note only: on metro-engine the growth is a few MB and moves with the
  // LDPC codes (a few MB each) that a seed's blocks select.
  char rss[96];
  std::snprintf(rss, sizeof rss, "rss growth %.2f MB (not gated, see README)",
                rss_growth_mb);
  out.notes.push_back(rss);
  if (!has_tail(latency.count(), 0.90)) {
    out.notes.push_back("block_latency_p90_ms has fewer than ten samples "
                        "beyond it (" + std::to_string(latency.count()) +
                        " blocks)");
  }
  if (!has_tail(enc.count(), 0.99) || !has_tail(dec.count(), 0.99)) {
    out.notes.push_back("key-request p99 has fewer than ten samples beyond "
                        "it (" + std::to_string(enc.count()) + " requests)");
  }
}

void per_layer_metrics(RunOutput& out, const WorkloadPlan& plan,
                       const std::vector<LinkCorpus>& corpus,
                       const Distillers& distillers, const PhaseResult& plain,
                       const PhaseResult& traced, Checks& checks) {
  const auto& blocks = traced.blocks;
  const double ok = std::max<double>(1.0, static_cast<double>(traced.blocks_ok()));
  auto sum = [&](double (*get)(const BlockRecord&)) {
    double total = 0.0;
    for (const auto& b : blocks) {
      if (b.ok) total += get(b);
    }
    return total;
  };
  const bool engine_mode = plan.mode == Mode::kEngine;
  const bool session_mode = plan.mode == Mode::kSession;

  std::vector<double> sim_ms;
  for (const auto& lc : corpus) {
    for (const auto& b : lc.blocks) sim_ms.push_back(b.sim_ms);
  }
  add(out, "sim.block_ms", mean(sim_ms), "ms");

  const double process_ms =
      engine_mode ? sum([](const BlockRecord& b) { return b.distill_ms; }) / ok
                  : 0.0;
  const double stage_ms[] = {
      sum([](const BlockRecord& b) { return b.timings.sift; }) * 1e3 / ok,
      sum([](const BlockRecord& b) { return b.timings.estimate; }) * 1e3 / ok,
      sum([](const BlockRecord& b) { return b.timings.reconcile; }) * 1e3 / ok,
      sum([](const BlockRecord& b) { return b.timings.verify; }) * 1e3 / ok,
      sum([](const BlockRecord& b) { return b.timings.amplify; }) * 1e3 / ok};
  add(out, "engine.process_block_ms", process_ms, "ms");
  add(out, "engine.sift_ms", stage_ms[0], "ms");
  add(out, "engine.estimate_ms", stage_ms[1], "ms");
  add(out, "engine.reconcile_ms", stage_ms[2], "ms");
  add(out, "engine.verify_ms", stage_ms[3], "ms");
  add(out, "engine.amplify_ms", stage_ms[4], "ms");
  double stage_total = 0.0;
  for (const double ms : stage_ms) stage_total += ms;
  add(out, "engine.other_ms", engine_mode ? process_ms - stage_total : 0.0,
      "ms");

  const double frames = sum([](const BlockRecord& b) {
    return static_cast<double>(b.frames);
  });
  add(out, "reconcile.frames_per_block", frames / ok, "count");
  add(out, "reconcile.iterations_per_frame",
      frames > 0 ? sum([](const BlockRecord& b) {
                     return static_cast<double>(b.iterations);
                   }) / frames
                 : 0.0,
      "count");
  add(out, "reconcile.rounds_per_block",
      sum([](const BlockRecord& b) { return static_cast<double>(b.rounds); }) /
          ok,
      "count");
  add(out, "reconcile.early_exit_ratio",
      frames > 0 ? sum([](const BlockRecord& b) {
                     return static_cast<double>(b.early_exit);
                   }) / frames
                 : 0.0,
      "ratio");
  add(out, "reconcile.leak_bits_per_block",
      sum([](const BlockRecord& b) { return static_cast<double>(b.leak_ec); }) /
          ok,
      "bit");
  // Disclosed bits per reconciled bit, against the entropy of the true
  // signal QBER counted from the raw arrays.
  add(out, "reconcile.efficiency", sum([](const BlockRecord& b) {
        const double h = qkdpp::binary_entropy(b.qber_true);
        return h > 0 && b.reconciled > 0
                   ? static_cast<double>(b.leak_ec) /
                         (static_cast<double>(b.reconciled) * h)
                   : 0.0;
      }) / ok,
      "ratio");

  add(out, "session.block_ms",
      session_mode ? sum([](const BlockRecord& b) { return b.distill_ms; }) / ok
                   : 0.0,
      "ms");
  add(out, "protocol.messages_per_block",
      sum([](const BlockRecord& b) { return static_cast<double>(b.messages); }) /
          ok,
      "count");
  add(out, "protocol.round_trips_per_block", sum([](const BlockRecord& b) {
        return static_cast<double>(b.round_trips);
      }) / ok,
      "count");
  add(out, "protocol.bytes_per_block",
      sum([](const BlockRecord& b) { return static_cast<double>(b.bytes); }) /
          ok,
      "B");
  add(out, "protocol.retransmits_per_block", sum([](const BlockRecord& b) {
        return static_cast<double>(b.retransmits);
      }) / ok,
      "count");

  // Span-derived figures: self time = span minus same-thread child spans.
  const auto self = self_times(traced.spans);
  std::map<std::string, double> self_ms_link;  // on link (Alice) threads
  double wait_ms = 0.0;
  double codec_us = 0.0;
  double service_us = 0.0;
  for (const Span& span : traced.spans) {
    const std::string name = span.name;
    const double self_ms = static_cast<double>(self.at(span.id)) / 1e6;
    const bool link_lane = span.thread >= 1 && span.thread < kBobLaneBase;
    if (link_lane) self_ms_link[name.substr(0, name.find('.'))] += self_ms;
    if (link_lane && name == "raw.recv") {
      wait_ms += static_cast<double>(span.duration_ns()) / 1e6;
    }
    if (name == "api.json.parse" || name == "api.request.from_json" ||
        name == "api.response.to_json" || name == "api.json.dump") {
      codec_us += self_ms * 1e3;
    } else if (name == "api.dispatch") {
      service_us += self_ms * 1e3;
    }
  }
  add(out, "protocol.wait_ms_per_block", wait_ms / ok, "ms");
  add(out, "protocol.arq_self_ms_per_block", self_ms_link["arq"] / ok, "ms");
  add(out, "auth.self_ms_per_block", self_ms_link["auth"] / ok, "ms");
  add(out, "auth.key_bits_per_block",
      sum([](const BlockRecord& b) { return static_cast<double>(b.auth_bits); }) /
          ok,
      "bit");

  add(out, "kms.deposit_us",
      sum([](const BlockRecord& b) { return b.deposit_us; }) / ok, "us");
  double peak = 0.0;
  for (const auto& b : blocks) peak = std::max(peak, static_cast<double>(b.store_bits));
  add(out, "kms.bits_available_peak", peak, "bit");

  const double requests =
      std::max<double>(1.0, static_cast<double>(traced.requests.size()));
  double response_bytes = 0.0;
  for (const auto& r : traced.requests) {
    response_bytes += static_cast<double>(r.response_bytes);
  }
  add(out, "api.codec_us", codec_us / requests, "us");
  add(out, "api.service_us", service_us / requests, "us");
  add(out, "api.response_bytes", response_bytes / requests, "B");

  std::size_t relayed_pair = SIZE_MAX;
  for (std::size_t p = 0; p < plan.pairs.size(); ++p) {
    if (plan.pairs[p].links.size() > 1) relayed_pair = p;
  }
  add(out, "network.relayed_enc_keys_p50_us",
      relayed_pair == SIZE_MAX
          ? 0.0
          : percentile(request_us(traced, true, relayed_pair), 0.5),
      "us");
  add(out, "network.relayed_bits", static_cast<double>(traced.relayed_bits),
      "bit");
  add(out, "network.reroutes", static_cast<double>(traced.reroutes), "count");

  add(out, "hetero.construct_ms", distillers.construct_ms, "ms");
  for (const char* device : {"cpu-scalar", "cpu-parallel"}) {
    double busy = 0.0;
    for (const auto& [name, seconds] : traced.device_busy_s) {
      if (name == device) busy = seconds;
    }
    add(out, std::string("hetero.") + device + ".busy_s", busy, "s");
  }
  add(out, "fleet.overlap",
      engine_mode ? sum([](const BlockRecord& b) { return b.distill_ms; }) /
                        (traced.wall_s * 1e3)
                  : 0.0,
      "ratio");

  // Tracing overhead, and the coverage gate: the layer spans on the thread
  // that carries a block account for all but 5% of the block's span.
  const auto latency = [](const PhaseResult& phase) {
    return percentile(
        field(phase.blocks, [](const BlockRecord& b) { return b.latency_ms; }),
        0.5);
  };
  add(out, "trace.overhead_pct",
      (latency(traced) / latency(plain) - 1.0) * 100.0, "%");
  add(out, "trace.unspanned_pct",
      check_layer_coverage(checks, traced.spans, "block") * 100.0, "%");
  add(out, "trace.spans", static_cast<double>(traced.spans.size()), "count");
}

void count_operations(RunOutput& out, const PhaseResult& phase) {
  for (const auto& b : phase.blocks) {
    ++out.attempted;
    out.failed += !b.ok;
  }
  for (const auto& r : phase.requests) {
    ++out.attempted;
    out.failed += !r.ok;
  }
}

}  // namespace

RunOutput run_workload(const RunConfig& config,
                       std::int64_t process_start_ns) {
  const WorkloadPlan plan = plan_for(config.workload);
  const engine::PostprocessParams params;
  RunOutput out;

  // Corpus: generated before any clock a metric reads, on up to 4 threads.
  tracer().set_enabled(config.trace);
  const std::int64_t corpus_start = now_ns();
  std::vector<LinkProfile> links = plan.links;
  if (config.misalignment >= 0) {
    for (auto& link : links) link.misalignment = config.misalignment;
  }
  const std::vector<LinkCorpus> corpus =
      build_corpus(links, plan.blocks_per_link, config.seed, 4,
                   plan.mode == Mode::kSession);
  const std::int64_t corpus_ns = now_ns() - corpus_start;
  tracer().set_enabled(false);
  const std::vector<Span> sim_spans = tracer().take();
  const std::uint64_t rss_base_kb = peak_rss_kb();

  // Set-up: engines, auth key pools, then one untimed pass over the exact
  // block schedule of the timed phase (it builds every LDPC code the timed
  // phase needs, about 0.65 s each).
  Distillers distillers = build_distillers(plan, params);
  std::vector<std::vector<std::pair<BitVec, BitVec>>> auth_keys(
      corpus.size());
  if (plan.mode == Mode::kSession) {
    for (std::size_t l = 0; l < corpus.size(); ++l) {
      for (const auto& block : corpus[l].blocks) {
        qkdpp::Xoshiro256 rng(mix_seed(block.rng_seed, 2));
        BitVec a2b = rng.random_bits(kAuthPoolBits);
        BitVec b2a = rng.random_bits(kAuthPoolBits);
        auth_keys[l].emplace_back(std::move(a2b), std::move(b2a));
      }
    }
  }
  DeliveryLedger ledger;
  std::uint64_t uuid_seed = mix_seed(config.seed, 77);
  auto run_phase = [&](PhaseOptions options) {
    DeliveryStack stack =
        build_delivery(plan, corpus, params, ++uuid_seed);
    Phase phase(plan, corpus, auth_keys, params, distillers, stack, ledger,
                std::move(options));
    return phase.run(out.checks);
  };
  const PhaseResult warmup = run_phase({});
  {
    const auto latency =
        field(warmup.blocks, [](const BlockRecord& b) { return b.latency_ms; });
    char line[200];
    std::snprintf(line, sizeof line,
                  "warm-up pass: %zu blocks, median %.1f ms, slowest %.0f ms "
                  "(LDPC codes are built on first use)",
                  warmup.blocks.size(), percentile(latency, 0.5),
                  percentile(latency, 1.0));
    out.notes.push_back(line);
  }
  // A block that aborts in the warm-up pass aborts again on every replay.
  // Only the session's known reconciliation defect ("no reconciled frames"
  // on a few blocks the engine distils, see the README) is left out of the
  // timed schedule, and at most kMaxLeftOut blocks of a link; any other
  // abort fails the run.
  std::vector<std::vector<bool>> excluded;
  std::vector<std::size_t> left_out(corpus.size(), 0);
  std::size_t excluded_count = 0;
  for (const LinkCorpus& lc : corpus) excluded.emplace_back(lc.blocks.size());
  for (const BlockRecord& b : warmup.blocks) {
    if (b.ok) continue;
    const std::string id = plan.links[b.link].name + " block " +
                           std::to_string(b.index + 1) + " (" +
                           b.abort_reason + ")";
    if (plan.mode != Mode::kSession ||
        b.abort_reason != kSessionReconcileDefect) {
      out.checks.fail("warm-up pass: " + id + " aborts");
      continue;
    }
    excluded[b.link][b.index] = true;
    ++excluded_count;
    ++left_out[b.link];
    out.notes.push_back("left out " + id + ": aborts in the warm-up pass");
  }
  for (std::size_t l = 0; l < corpus.size(); ++l) {
    out.checks.expect(left_out[l] <= kMaxLeftOut,
                      "warm-up pass: " + std::to_string(left_out[l]) +
                          " blocks of link " + plan.links[l].name +
                          " abort with \"" + kSessionReconcileDefect +
                          "\", more than " + std::to_string(kMaxLeftOut));
  }

  auto check_phase = [&](const PhaseResult& phase, const char* label) {
    count_operations(out, phase);
    for (std::size_t p = 0; p < plan.pairs.size(); ++p) {
      out.checks.expect(
          phase.pair_digest[p] == warmup.pair_digest[p],
          std::string(label) + ": delivered key digest of pair " +
              plan.pairs[p].master + "/" + plan.pairs[p].slave +
              " differs from the same-seed warm-up pass");
    }
  };
  PhaseOptions timed;
  timed.time_bound = true;
  timed.digest_requests = warmup.pair_requests;
  timed.excluded = excluded;

  if (!config.trace) {
    const double setup_s =
        static_cast<double>(now_ns() - process_start_ns - corpus_ns) / 1e9;
    timed.seconds = config.seconds;
    const PhaseResult result = run_phase(timed);
    check_phase(result, "timed phase");
    const double rss_growth_mb =
        static_cast<double>(peak_rss_kb() - rss_base_kb) / 1024.0;
    end_to_end_metrics(out, result, setup_s, rss_growth_mb);
    char line[256];
    std::snprintf(line, sizeof line,
                  "timed phase: %.2f s, %zu blocks, %zu key requests, "
                  "%llu delivered bits",
                  result.wall_s, result.blocks.size(), result.requests.size(),
                  static_cast<unsigned long long>(result.matched_bits));
    out.notes.push_back(line);
  } else {
    // Half the run untraced, half traced: their difference is the
    // tracing overhead.
    timed.seconds = config.seconds / 2;
    const PhaseResult plain = run_phase(timed);
    check_phase(plain, "untraced phase");
    PhaseOptions traced_options = timed;
    traced_options.traced = true;
    PhaseResult traced = run_phase(traced_options);
    check_phase(traced, "traced phase");
    traced.spans.insert(traced.spans.end(), sim_spans.begin(),
                        sim_spans.end());
    per_layer_metrics(out, plan, corpus, distillers, plain, traced,
                      out.checks);
    add(out, "setup.excluded_blocks", static_cast<double>(excluded_count),
        "count");
    if (!config.trace_out.empty()) {
      std::ofstream file(config.trace_out);
      file << chrome_trace_json(traced.spans, kMaxTraceEvents);
      out.checks.expect(file.good(),
                        "could not write trace to " + config.trace_out);
      out.notes.push_back("chrome trace: " + config.trace_out);
    }
  }
  ledger.check(out.checks);

  // Final-key balance over one round of distinct blocks.
  std::uint64_t ones = 0;
  std::uint64_t bits = 0;
  for (const auto& b : warmup.blocks) {
    ones += b.ones;
    bits += b.final_bits;
  }
  check_balance(out.checks, ones, bits);

  char line[256];
  std::snprintf(line, sizeof line,
                "corpus: %zu link(s) x %zu records, %.2f s to generate",
                corpus.size(), plan.blocks_per_link,
                static_cast<double>(corpus_ns) / 1e9);
  out.notes.insert(out.notes.begin(), line);
  return out;
}

}  // namespace perfbench
