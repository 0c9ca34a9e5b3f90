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

std::vector<orch::Scheduler*> SimulatedCluster::schedulers() {
  std::vector<orch::Scheduler*> out;
  out.reserve(schedulers_.size());
  for (const auto& scheduler : schedulers_) {
    out.push_back(scheduler.get());
  }
  return out;
}

orch::Scheduler* SimulatedCluster::find_scheduler(const std::string& name) {
  for (const auto& scheduler : schedulers_) {
    if (scheduler->name() == name) return scheduler.get();
  }
  return nullptr;
}

void SimulatedCluster::install_fault_handlers(sim::FaultInjector& injector,
                                              orch::PodRestarter* restarter) {
  using sim::FaultKind;
  using sim::FaultSpec;

  // Node crash / reboot. Guarded on the node's current readiness so a
  // test driving fail_node directly alongside the injector cannot
  // double-fail (the injector already refcounts same-target overlaps).
  injector.on_inject(FaultKind::kNodeCrash, [this](const FaultSpec& spec) {
    cluster::Node* node = find_node(spec.target);
    if (node != nullptr && node->ready()) api_->fail_node(spec.target);
  });
  injector.on_heal(FaultKind::kNodeCrash, [this](const FaultSpec& spec) {
    cluster::Node* node = find_node(spec.target);
    if (node != nullptr && !node->ready()) api_->recover_node(spec.target);
  });

  // SGX-probe dropout ("" targets every probe); redeployed probes inherit
  // the active fault state from the DaemonSet.
  injector.on_inject(FaultKind::kProbeDropout, [this](const FaultSpec& spec) {
    daemonset_->set_drop_samples(spec.target, true);
  });
  injector.on_heal(FaultKind::kProbeDropout, [this](const FaultSpec& spec) {
    daemonset_->set_drop_samples(spec.target, false);
  });

  // Heapster dropout is cluster-wide (one central scraper).
  injector.on_inject(FaultKind::kHeapsterDropout, [this](const FaultSpec&) {
    heapster_->set_drop_samples(true);
  });
  injector.on_heal(FaultKind::kHeapsterDropout, [this](const FaultSpec&) {
    heapster_->set_drop_samples(false);
  });

  // Sample delay: a targeted delay slows that node's probe; an untargeted
  // one ("") slows every probe and Heapster, the one central scraper.
  // Each is healed on its own, as the injector counts them.
  injector.on_inject(FaultKind::kSampleDelay, [this](const FaultSpec& spec) {
    daemonset_->set_sample_delay(spec.target, spec.delay);
    if (spec.target.empty()) heapster_->set_sample_delay(spec.delay);
  });
  injector.on_heal(FaultKind::kSampleDelay, [this](const FaultSpec& spec) {
    daemonset_->set_sample_delay(spec.target, Duration{});
    if (spec.target.empty()) heapster_->set_sample_delay(Duration{});
  });

  injector.on_inject(FaultKind::kTsdbWriteError, [this](const FaultSpec&) {
    db_.set_write_fault(true);
  });
  injector.on_heal(FaultKind::kTsdbWriteError, [this](const FaultSpec&) {
    db_.set_write_fault(false);
  });

  // Stale reads: queries see nothing newer than the activation instant.
  injector.on_inject(FaultKind::kTsdbStaleReads, [this](const FaultSpec&) {
    db_.set_read_horizon(sim_.now());
  });
  injector.on_heal(FaultKind::kTsdbStaleReads, [this](const FaultSpec&) {
    db_.set_read_horizon(std::nullopt);
  });

  // Per-shard TSDB faults: the target is a decimal shard index (wrapped
  // into range so a plan generated for a bigger database stays valid).
  const auto shard_of = [this](const FaultSpec& spec) {
    std::size_t shard = 0;
    try {
      shard = static_cast<std::size_t>(std::stoul(spec.target));
    } catch (const std::exception&) {
      shard = 0;
    }
    return shard % db_.shard_count();
  };
  injector.on_inject(FaultKind::kTsdbShardWriteError,
                     [this, shard_of](const FaultSpec& spec) {
                       db_.set_shard_write_fault(shard_of(spec), true);
                     });
  injector.on_heal(FaultKind::kTsdbShardWriteError,
                   [this, shard_of](const FaultSpec& spec) {
                     db_.set_shard_write_fault(shard_of(spec), false);
                   });
  injector.on_inject(FaultKind::kTsdbShardStaleReads,
                     [this, shard_of](const FaultSpec& spec) {
                       db_.set_shard_read_horizon(shard_of(spec), sim_.now());
                     });
  injector.on_heal(FaultKind::kTsdbShardStaleReads,
                   [this, shard_of](const FaultSpec& spec) {
                     db_.set_shard_read_horizon(shard_of(spec), std::nullopt);
                   });

  if (restarter != nullptr) {
    injector.on_inject(FaultKind::kWatchDisconnect,
                       [restarter](const FaultSpec&) {
                         restarter->disconnect();
                       });
    injector.on_heal(FaultKind::kWatchDisconnect,
                     [restarter](const FaultSpec&) { restarter->resync(); });
  }

  // Control-plane faults. A crashed scheduler stops (crash-stop) and its
  // pending pods wait; on heal the process "restarts" with no cached
  // state.
  injector.on_inject(FaultKind::kSchedulerCrash, [this](const FaultSpec& spec) {
    orch::Scheduler* scheduler = find_scheduler(spec.target);
    if (scheduler != nullptr && !scheduler->crashed()) scheduler->crash();
  });
  injector.on_heal(FaultKind::kSchedulerCrash, [this](const FaultSpec& spec) {
    orch::Scheduler* scheduler = find_scheduler(spec.target);
    if (scheduler != nullptr && scheduler->crashed()) scheduler->restart();
  });

  // Attestation faults (only meaningful with an attesting cluster; the
  // plan generator downgrades these kinds for configs without one, but a
  // hand-written plan against a non-attesting fixture is simply inert).
  if (verifier_ != nullptr) {
    injector.on_inject(FaultKind::kAttestationVerifierOutage,
                       [this](const FaultSpec&) {
                         verifier_->set_outage(true);
                       });
    injector.on_heal(FaultKind::kAttestationVerifierOutage,
                     [this](const FaultSpec&) {
                       verifier_->set_outage(false);
                     });
    injector.on_inject(FaultKind::kAttestationSlowVerify,
                       [this](const FaultSpec& spec) {
                         verifier_->set_extra_latency(spec.delay);
                       });
    injector.on_heal(FaultKind::kAttestationSlowVerify,
                     [this](const FaultSpec&) {
                       verifier_->set_extra_latency(Duration{});
                     });
    // A storm is instantaneous: the mass expiry fires at activation and
    // the renewal race plays out on its own — there is nothing to heal
    // (the plan's heal event still balances the injected/healed counters
    // without a handler).
    injector.on_inject(FaultKind::kReattestationStorm,
                       [this](const FaultSpec&) {
                         if (orch::AttestationGate* gate = api_->attestation();
                             gate != nullptr) {
                           gate->force_expire_all();
                         }
                       });
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
