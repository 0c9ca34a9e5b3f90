// The node agent. When the master binds a pod here, the Kubelet:
//   1. reserves the pod's EPC device items (device-plugin allocation),
//   2. transmits the pod's EPC limit to the isgx driver (the paper's
//      16-line Go + 22-line C cgo glue, §V-D) *before* containers start,
//   3. pulls the image if not cached,
//   4. starts the containers (mounting /dev/isgx into SGX pods),
//   5. lets the workload allocate — enclave creation + EINIT for SGX pods,
//      plain memory for standard pods; the driver may deny EINIT,
//   6. reports pod phase transitions back to the control plane,
//   7. tears everything down when the stressor's duration elapses.
//
// Startup latencies follow the measured model (Fig. 6): ~100 ms PSW/AESM
// per container plus size-dependent enclave allocation; <1 ms for standard
// pods.
//
// The monitoring reads (Heapster's memory scrape, the SGX probe's EPC
// probe) visit each active pod's own container list, not the node's
// runtime.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cluster/node.hpp"
#include "cluster/pod.hpp"
#include "sgx/attestation_verifier.hpp"
#include "sgx/migration.hpp"
#include "sgx/perf_model.hpp"
#include "sgx/sdk.hpp"
#include "sim/simulation.hpp"

namespace sgxo::cluster {

/// Control-plane callbacks; implemented by the API server.
class PodLifecycleListener {
 public:
  virtual ~PodLifecycleListener() = default;
  virtual void on_pod_running(const PodName& pod) = 0;
  virtual void on_pod_succeeded(const PodName& pod) = 0;
  virtual void on_pod_failed(const PodName& pod, const std::string& reason) = 0;
};

class Kubelet {
 public:
  Kubelet(sim::Simulation& sim, Node& node, const sgx::PerfModel& perf,
          const ImageRegistry& registry, PodLifecycleListener& listener);

  Kubelet(const Kubelet&) = delete;
  Kubelet& operator=(const Kubelet&) = delete;

  [[nodiscard]] const NodeName& node_name() const { return node_->name(); }
  [[nodiscard]] Node& node() { return *node_; }

  /// Accepts a pod bound to this node by a scheduler. Admission can fail
  /// synchronously (device exhaustion) — reported through the listener.
  void admit_pod(const PodSpec& spec);

  /// Admission guard: would admit_pod succeed right now? Re-checks the
  /// pod's declared EPC request against the node's *live* device-plugin
  /// commitments (the ledger of every pod currently admitted here), so a
  /// bind planned on a stale node view — a cycle whose view predates
  /// another bind to this node, a restarted scheduler trusting cached
  /// state — is rejected before it can over-commit the EPC.
  /// Deliberately EPC-only: standard memory over-commit is tolerated at
  /// admission, exactly as in Kubernetes.
  [[nodiscard]] bool can_admit(const PodSpec& spec) const;

  // ---- attestation at bind delivery ----------------------------------------
  /// Enables quote re-verification at bind delivery, mirroring the EPC
  /// admission guard: even if the control plane's cached verdict said yes,
  /// the kubelet re-attests before containers start (defence against a
  /// stale control-plane cache). `quote_source` produces this node's
  /// current quote on demand. A local verdict younger than 5 min is
  /// trusted without a new round-trip, so only the first admission per
  /// 5 min pays verification latency. While the verifier is unreachable
  /// (unavailable / timed out) non-SGX pods start anyway (counted in
  /// degraded_admissions); SGX pods fail closed and retry with exponential
  /// backoff from 500 ms, capped at 30 s, plus deterministic per-attempt
  /// jitter.
  void enable_attestation(sgx::QuoteTransport& transport,
                          std::function<sgx::Quote()> quote_source);
  [[nodiscard]] bool attestation_enabled() const {
    return attestation_transport_ != nullptr;
  }
  /// Verification round-trips issued by this kubelet.
  [[nodiscard]] std::uint64_t attestation_verifications() const {
    return attestation_verifications_;
  }
  /// Admissions re-scheduled after a transient verifier failure.
  [[nodiscard]] std::uint64_t attestation_retries() const {
    return attestation_retries_;
  }
  /// Non-SGX pods started without a verdict (they fail open).
  [[nodiscard]] std::uint64_t degraded_admissions() const {
    return degraded_admissions_;
  }
  /// Pods failed with "AttestationRejected" (definitive negative verdict).
  [[nodiscard]] std::uint64_t attestation_rejected_pods() const {
    return attestation_rejected_pods_;
  }

  /// Calls `visit(const PodName&, const std::vector<ContainerId>&)` for
  /// each active pod, in name order, with its containers in start order —
  /// the per-pod read of the monitors: Heapster sums the containers'
  /// memory, the SGX probe feeds their pids to the driver's per-process
  /// ioctl. Nothing is copied; `visit` must not admit or tear down pods.
  template <typename F>
  void for_each_active_pod(F&& visit) const {
    for (const auto& [name, pod] : active_) visit(name, pod.containers);
  }
  [[nodiscard]] std::size_t active_pod_count() const { return active_.size(); }

  // ---- enclave migration (paper §VIII future work) -------------------------
  /// Everything that moves with a pod during live migration.
  struct MigrationBundle {
    PodSpec spec;
    /// Runtime left when the quiescent point was reached.
    Duration remaining{};
    sgx::EnclaveCheckpoint checkpoint;
    /// Quiescence + capture latency already spent on the source.
    Duration checkpoint_latency{};
  };

  /// True if the pod is running here with a live enclave (only SGX pods
  /// migrate; standard pods are out of scope, as in the paper).
  [[nodiscard]] bool pod_migratable(const PodName& pod) const;

  /// Quiesces, checkpoints and tears the pod down locally. The pod's
  /// completion event becomes a no-op; the caller owns the bundle.
  [[nodiscard]] MigrationBundle extract_for_migration(
      const PodName& pod, sgx::MigrationService& service);

  /// Resumes a migrated pod on this node after `inbound_delay` (the
  /// checkpoint + wire-transfer time): reserves devices, reinstalls the
  /// pod's EPC limit, restarts containers + PSW, restores the enclave and
  /// schedules the remaining runtime. Failures surface via the listener.
  void admit_migrated(MigrationBundle bundle, sgx::MigrationService& service,
                      Duration inbound_delay);

  /// Evicts one pod immediately (preemption): full local teardown, no
  /// listener callback — the control plane initiating the eviction owns
  /// the pod's phase transition. No-op for pods not active here.
  void evict_pod(const PodName& pod);

  /// Node failure: every active pod is torn down and reported failed with
  /// reason "NodeFailure". Used by failure-injection experiments.
  void handle_node_failure();

 private:
  struct ActivePod {
    PodSpec spec;
    /// Its containers in start order; they run until teardown, which
    /// erases the pod.
    std::vector<ContainerId> containers;
    std::optional<sgx::EnclaveHandle> enclave;
    /// When the stressor's runtime elapses (set once running).
    std::optional<TimePoint> completion_due;
    /// Per-admission stamp. An eviction requeues the pod under the *same*
    /// name, so scheduled lifecycle events (verdict arrival, pull done,
    /// startup done, completion, grow/trim) must not act on a later
    /// re-admission of that name: each event captures the incarnation it
    /// was armed for and fizzles on mismatch.
    std::uint64_t incarnation = 0;
  };

  /// Attestation stage of admission: consults the local verdict, verifies
  /// through the transport when stale, and retries transient failures with
  /// capped exponential backoff + jitter. Chains into begin_image_pull.
  void gate_admission(const PodName& name, std::uint64_t incarnation,
                      int attempt);
  /// Image-pull stage (the admission path after any attestation gate).
  void begin_image_pull(const PodName& name, std::uint64_t incarnation);
  void start_containers(const PodName& name, std::uint64_t incarnation);
  void launch_workload(const PodName& name, std::uint64_t incarnation);
  /// True when this pod should use SGX 2 dynamic enclave memory: it has a
  /// dynamic profile *and* this node's driver is SGX 2 (§VI-G). SGX 1
  /// nodes fall back to committing the peak at build time.
  [[nodiscard]] bool use_dynamic_memory(const PodSpec& spec) const;
  /// Arms the grow (duration/3) and trim (2·duration/3) events.
  void schedule_dynamic_profile(const PodName& name,
                                std::uint64_t incarnation);
  void complete_pod(const PodName& name, std::uint64_t incarnation);
  void teardown(ActivePod& pod);
  /// The pod's EPC limit as installed in the driver: the declared limit,
  /// falling back to the request when no explicit limit was given.
  [[nodiscard]] static Pages effective_epc_limit(const PodSpec& spec);

  sim::Simulation* sim_;
  Node* node_;
  const sgx::PerfModel* perf_;
  const ImageRegistry* registry_;
  PodLifecycleListener* listener_;
  std::map<PodName, ActivePod> active_;
  /// Monotonic admission counter feeding ActivePod::incarnation.
  std::uint64_t next_incarnation_ = 0;

  // Attestation at bind delivery (disabled until enable_attestation).
  sgx::QuoteTransport* attestation_transport_ = nullptr;
  std::function<sgx::Quote()> quote_source_;
  /// Local node verdict: fresh admissions skip the round-trip until it
  /// expires.
  bool has_local_verdict_ = false;
  TimePoint local_verdict_expires_;
  std::uint64_t attestation_verifications_ = 0;
  std::uint64_t attestation_retries_ = 0;
  std::uint64_t degraded_admissions_ = 0;
  std::uint64_t attestation_rejected_pods_ = 0;
};

}  // namespace sgxo::cluster
