#include "exp/fixture.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/hash.hpp"

namespace sgxo::exp {

using namespace sgxo::literals;

SimulatedCluster::SimulatedCluster(ClusterConfig config)
    : config_(std::move(config)), db_(config_.tsdb_shards) {
  api_ = std::make_unique<orch::ApiServer>(sim_);

  // The evaluation image everyone runs (pulled once per node, then cached).
  registry_.publish("sebvaucher/sgx-base:stress-sgx", 200_MiB);

  for (cluster::MachineSpec spec : config_.machines) {
    if (spec.epc.has_value() && config_.epc_usable_override.has_value()) {
      spec.epc = sgx::EpcConfig::with_usable(*config_.epc_usable_override);
    }
    if (spec.epc.has_value()) {
      spec.sgx_version = config_.sgx_version;
    }
    auto node = std::make_unique<cluster::Node>(spec,
                                                config_.enforce_epc_limits);
    auto kubelet = std::make_unique<cluster::Kubelet>(sim_, *node, perf_,
                                                      registry_, *api_);
    api_->register_node(*node, *kubelet);
    nodes_.push_back(std::move(node));
    kubelets_.push_back(std::move(kubelet));
  }

  heapster_ = std::make_unique<orch::Heapster>(sim_, *api_, db_,
                                               config_.heapster_period);
  daemonset_ = std::make_unique<orch::ProbeDaemonSet>(
      sim_, *api_, db_, config_.probe_period);

  if (config_.attestation) {
    // One expected measurement — the evaluation image everyone runs — and
    // one provisioned platform per SGX node. The verifier backs both the
    // API server's verdict cache and the kubelet-side re-check.
    attestation_measurement_ =
        sgx::measure_enclave("sebvaucher/sgx-base:stress-sgx");
    sgx::AttestationVerifier::Config verifier_config;
    verifier_config.expected = attestation_measurement_;
    verifier_ = std::make_unique<sgx::AttestationVerifier>(verifier_config);
    for (const auto& node : nodes_) {
      if (!node->has_sgx()) continue;
      const auto [it, inserted] = platforms_.emplace(
          node->name(), sgx::Platform::for_node(node->name()));
      SGXO_CHECK(inserted);
      verifier_->provision(it->second);
    }
    api_->enable_attestation(
        *verifier_,
        [this](const cluster::NodeName& name) { return node_quote(name); });
    for (const auto& kubelet : kubelets_) {
      if (!kubelet->node().has_sgx()) continue;
      kubelet->enable_attestation(
          *verifier_,
          [this, name = kubelet->node_name()] { return node_quote(name); });
    }
  }
}

sgx::Quote SimulatedCluster::node_quote(const cluster::NodeName& name) const {
  const auto it = platforms_.find(name);
  SGXO_CHECK_MSG(it != platforms_.end(),
                 "no provisioned platform for node " + name);
  return sgx::QuotingEnclave{it->second}.quote(attestation_measurement_,
                                               fnv1a(name));
}

std::vector<cluster::Node*> SimulatedCluster::nodes() {
  std::vector<cluster::Node*> out;
  out.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    out.push_back(node.get());
  }
  return out;
}

cluster::Node* SimulatedCluster::find_node(const cluster::NodeName& name) {
  for (const auto& node : nodes_) {
    if (node->name() == name) return node.get();
  }
  return nullptr;
}

std::vector<cluster::Kubelet*> SimulatedCluster::kubelets() {
  std::vector<cluster::Kubelet*> out;
  out.reserve(kubelets_.size());
  for (const auto& kubelet : kubelets_) {
    out.push_back(kubelet.get());
  }
  return out;
}

std::size_t SimulatedCluster::sgx_node_count() const {
  return static_cast<std::size_t>(
      std::count_if(nodes_.begin(), nodes_.end(),
                    [](const auto& node) { return node->has_sgx(); }));
}

core::SgxAwareScheduler& SimulatedCluster::add_sgx_scheduler(
    core::PlacementPolicy policy, std::string name) {
  core::SgxSchedulerConfig sched_config;
  sched_config.policy = policy;
  sched_config.name = std::move(name);
  return add_sgx_scheduler(std::move(sched_config));
}

core::SgxAwareScheduler& SimulatedCluster::add_sgx_scheduler(
    core::SgxSchedulerConfig config) {
  auto scheduler = std::make_unique<core::SgxAwareScheduler>(
      sim_, *api_, db_, config_.metrics_window, std::move(config));
  scheduler->start();
  auto& ref = static_cast<core::SgxAwareScheduler&>(*schedulers_.emplace_back(
      std::move(scheduler)));
  return ref;
}

orch::DefaultScheduler& SimulatedCluster::add_default_scheduler() {
  auto scheduler = std::make_unique<orch::DefaultScheduler>(sim_, *api_);
  scheduler->start();
  orch::DefaultScheduler& ref = *scheduler;
  schedulers_.push_back(std::move(scheduler));
  return ref;
}

orch::Scheduler* SimulatedCluster::find_scheduler(const std::string& name) {
  for (const auto& scheduler : schedulers_) {
    if (scheduler->name() == name) return scheduler.get();
  }
  return nullptr;
}

void SimulatedCluster::install_fault_handlers(sim::FaultInjector& injector,
                                              orch::PodRestarter* restarter) {
  injector.on_change([this, restarter](
                         const sim::FaultSpec& changed, bool activated,
                         const std::vector<sim::FaultSpec>& active) {
    apply_faults(changed, activated, active, restarter);
  });
}

void SimulatedCluster::apply_faults(const sim::FaultSpec& changed,
                                    bool activated,
                                    const std::vector<sim::FaultSpec>& active,
                                    orch::PodRestarter* restarter) {
  using sim::FaultKind;
  using sim::FaultSpec;

  const auto any = [&](const auto& applies) {
    return std::any_of(active.begin(), active.end(), applies);
  };
  const auto largest_delay = [&](const auto& applies) {
    Duration delay{};
    for (const FaultSpec& spec : active) {
      if (applies(spec)) delay = std::max(delay, spec.delay);
    }
    return delay;
  };
  const auto same_target = [&](const FaultSpec& spec) {
    return spec.target == changed.target;
  };
  // A probe fault names its node's probe, or with "" every probe.
  const auto names_probe = [](const cluster::NodeName& node) {
    return [&node](const FaultSpec& spec) {
      return spec.target.empty() || spec.target == node;
    };
  };
  // The shards some active TSDB fault names. A target is a decimal shard
  // index taken modulo the shard count, so a plan drawn for a bigger
  // database stays valid; "" names every shard.
  const auto covered_shards = [&] {
    std::vector<bool> covered(db_.shard_count(), false);
    for (const FaultSpec& spec : active) {
      if (spec.target.empty()) {
        covered.assign(covered.size(), true);
        continue;
      }
      std::size_t shard = 0;
      for (const char digit : spec.target) {
        SGXO_CHECK_MSG(digit >= '0' && digit <= '9',
                       "TSDB fault target is not a shard index: " +
                           spec.target);
        shard = (shard * 10 + static_cast<std::size_t>(digit - '0')) %
                covered.size();
      }
      covered[shard] = true;
    }
    return covered;
  };

  // Node and scheduler crashes are guarded on the current state, so a test
  // driving fail_node or crash directly alongside the injector cannot
  // double-fail.
  switch (changed.kind) {
    case FaultKind::kNodeCrash: {
      cluster::Node* node = find_node(changed.target);
      if (node == nullptr) break;
      const bool down = any(same_target);
      if (down && node->ready()) api_->fail_node(changed.target);
      if (!down && !node->ready()) api_->recover_node(changed.target);
      break;
    }
    case FaultKind::kProbeDropout:
      for (const orch::ApiServer::NodeEntry& entry : api_->all_nodes()) {
        if (!entry.node->has_sgx()) continue;
        daemonset_->samples(entry.node->name())
            .set_drop(any(names_probe(entry.node->name())));
      }
      break;
    case FaultKind::kHeapsterDropout:
      heapster_->samples().set_drop(!active.empty());
      break;
    case FaultKind::kSampleDelay:
      // Only an untargeted delay slows Heapster, the one central scraper.
      for (const orch::ApiServer::NodeEntry& entry : api_->all_nodes()) {
        if (!entry.node->has_sgx()) continue;
        daemonset_->samples(entry.node->name())
            .set_delay(largest_delay(names_probe(entry.node->name())));
      }
      heapster_->samples().set_delay(largest_delay(
          [](const FaultSpec& spec) { return spec.target.empty(); }));
      break;
    case FaultKind::kTsdbWriteError: {
      const std::vector<bool> covered = covered_shards();
      for (std::size_t shard = 0; shard < covered.size(); ++shard) {
        db_.set_shard_write_fault(shard, covered[shard]);
      }
      break;
    }
    case FaultKind::kTsdbStaleReads: {
      // A shard's read horizon is the instant its current run of coverage
      // began, and lifts once no active fault covers it.
      const std::vector<bool> covered = covered_shards();
      for (std::size_t shard = 0; shard < covered.size(); ++shard) {
        if (!covered[shard]) {
          db_.set_shard_read_horizon(shard, std::nullopt);
        } else if (!db_.shard_read_horizon(shard).has_value()) {
          db_.set_shard_read_horizon(shard, sim_.now());
        }
      }
      break;
    }
    case FaultKind::kWatchDisconnect:
      // Each call is a no-op unless it changes the connection.
      if (restarter == nullptr) break;
      if (active.empty()) {
        restarter->resync();
      } else {
        restarter->disconnect();
      }
      break;
    case FaultKind::kSchedulerCrash: {
      // A crashed scheduler stops (crash-stop) and its pending pods wait;
      // on heal the process restarts with no cached state.
      orch::Scheduler* scheduler = find_scheduler(changed.target);
      if (scheduler == nullptr) break;
      const bool down = any(same_target);
      if (down && !scheduler->crashed()) scheduler->crash();
      if (!down && scheduler->crashed()) scheduler->restart();
      break;
    }
    // The attestation kinds act only on an attesting cluster: the plan
    // generator draws them only for one, and a hand-written plan against
    // a non-attesting fixture is inert.
    case FaultKind::kAttestationVerifierOutage:
      if (verifier_ != nullptr) verifier_->set_outage(!active.empty());
      break;
    case FaultKind::kAttestationSlowVerify:
      if (verifier_ != nullptr) {
        verifier_->set_extra_latency(
            largest_delay([](const FaultSpec&) { return true; }));
      }
      break;
    case FaultKind::kReattestationStorm:
      // A storm is instantaneous: each activation expires every cached
      // verdict and the renewal race plays out on its own. Its heal only
      // balances the injector's counters.
      if (orch::AttestationGate* gate = api_->attestation();
          activated && gate != nullptr) {
        gate->force_expire_all();
      }
      break;
  }
}

void SimulatedCluster::start_monitoring() {
  heapster_->start();
  daemonset_->start();
}

void SimulatedCluster::stop_all() {
  heapster_->stop();
  daemonset_->stop();
  for (const auto& scheduler : schedulers_) {
    scheduler->stop();
  }
}

bool SimulatedCluster::run_until_quiescent(std::size_t expected_pods,
                                           Duration deadline) {
  const TimePoint limit = sim_.now() + deadline;
  const Duration check = Duration::seconds(30);

  const auto all_terminal = [this] {
    for (const orch::PodRecord* record : api_->all_pods()) {
      if (record->phase != cluster::PodPhase::kSucceeded &&
          record->phase != cluster::PodPhase::kFailed) {
        return false;
      }
    }
    return true;
  };
  const auto quiescent = [&] {
    return api_->pod_count() >= expected_pods && all_terminal();
  };

  while (sim_.now() < limit) {
    if (quiescent()) return true;
    const TimePoint next = std::min(limit, sim_.now() + check);
    sim_.run_until(next);
    if (sim_.idle()) break;
  }
  return quiescent();
}

}  // namespace sgxo::exp
