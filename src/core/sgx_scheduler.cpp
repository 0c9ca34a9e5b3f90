#include "core/sgx_scheduler.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace sgxo::core {

std::string SgxAwareScheduler::default_name(PlacementPolicy policy) {
  return std::string("sgx-") + to_string(policy);
}

namespace {

std::string resolve_name(const SgxSchedulerConfig& config) {
  return config.name.empty() ? SgxAwareScheduler::default_name(config.policy)
                             : config.name;
}

}  // namespace

SgxAwareScheduler::SgxAwareScheduler(sim::Simulation& sim,
                                     orch::ApiServer& api,
                                     const tsdb::Database& db,
                                     Duration metrics_window,
                                     SgxSchedulerConfig config)
    : Scheduler(sim, api, resolve_name(config)),
      config_(std::move(config)),
      metrics_(db, metrics_window) {}

void fold_measured_usage(std::vector<orch::NodeView>& views,
                         const std::vector<ClusterMetrics::PodUsage>& epc,
                         const std::vector<ClusterMetrics::PodUsage>& memory,
                         const orch::ApiServer& api) {
  const auto by_name = [](const orch::NodeView& a, const orch::NodeView& b) {
    return a.name < b.name;
  };
  SGXO_CHECK_MSG(std::is_sorted(views.begin(), views.end(), by_name),
                 "node views must be sorted by name");
  for (orch::NodeView& view : views) {
    view.memory_used = Bytes{};
    view.epc_used = Pages{};
  }

  // One pass over the rows: each adds its usage to the view of its node,
  // found by binary search, and is remembered as (view, pod). Rows for a
  // node without a view (the master, a failed or unknown node) count
  // nowhere.
  const auto view_of =
      [&views](const cluster::NodeName& node) -> std::optional<std::size_t> {
    const auto it = std::lower_bound(
        views.begin(), views.end(), node,
        [](const orch::NodeView& view, const cluster::NodeName& name) {
          return view.name < name;
        });
    if (it == views.end() || it->name != node) return std::nullopt;
    return static_cast<std::size_t>(it - views.begin());
  };
  struct Measured {
    std::size_t view = 0;
    const cluster::PodName* pod = nullptr;
  };
  std::vector<Measured> measured;
  measured.reserve(epc.size() + memory.size());
  for (const ClusterMetrics::PodUsage& usage : epc) {
    const std::optional<std::size_t> v = view_of(usage.node);
    if (!v.has_value()) continue;
    views[*v].epc_used += Pages::ceil_from(usage.usage);
    measured.push_back(Measured{*v, &usage.pod});
  }
  for (const ClusterMetrics::PodUsage& usage : memory) {
    const std::optional<std::size_t> v = view_of(usage.node);
    if (!v.has_value()) continue;
    views[*v].memory_used += usage.usage;
    measured.push_back(Measured{*v, &usage.pod});
  }
  std::sort(measured.begin(), measured.end(),
            [](const Measured& a, const Measured& b) {
              if (a.view != b.view) return a.view < b.view;
              return *a.pod < *b.pod;
            });

  // Assigned pods not yet visible in the window contribute their declared
  // requests — "combining the two kinds of data" (§IV). Each node's pods
  // are read in place from the pods-by-node index, in name order, so one
  // cursor over the sorted (view, pod) list tells which of them the window
  // shows there.
  auto cursor = measured.begin();
  for (std::size_t v = 0; v < views.size(); ++v) {
    orch::NodeView& view = views[v];
    for (const auto& [name, record] : api.pods_on(view.name)) {
      while (cursor != measured.end() && cursor->view == v &&
             *cursor->pod < name) {
        ++cursor;
      }
      if (cursor != measured.end() && cursor->view == v &&
          *cursor->pod == name) {
        continue;
      }
      const cluster::ResourceAmounts request = record->spec.total_requests();
      view.memory_used += request.memory;
      view.epc_used += request.epc_pages;
    }
    while (cursor != measured.end() && cursor->view == v) ++cursor;
  }
}

void SgxAwareScheduler::measure_views(std::vector<orch::NodeView>& views) {
  const TimePoint now = sim().now();

  // Graceful degradation: a metrics pipeline that has stopped producing
  // samples (probe outage, TSDB write failures, stale replica) must not
  // be trusted — a window full of dead pods' last samples, with every
  // live pod missing, both over- and under-estimates. Past the staleness
  // threshold this cycle schedules on declared requests alone, exactly
  // like the Kubernetes default scheduler (the safe baseline).
  const std::optional<Duration> age = metrics_.staleness(now);
  if (age.has_value() && *age > kStaleMetricsThreshold) {
    ++degraded_cycles_;
    return;
  }
  // Replace the request-based estimate with measurement-informed usage;
  // view.epc_requested stays request-based: it mirrors the device
  // plugin's hard page accounting.
  const auto epc_measured = metrics_.epc_per_pod(now);
  const auto mem_measured = metrics_.memory_per_pod(now);
  fold_measured_usage(views, epc_measured, mem_measured, api());
}

std::optional<cluster::NodeName> SgxAwareScheduler::select_node(
    const cluster::PodSpec& pod, const std::vector<orch::NodeView>& feasible,
    const std::vector<orch::NodeView>& all) {
  switch (config_.policy) {
    case PlacementPolicy::kBinpack:
      return binpack_select(pod, feasible);
    case PlacementPolicy::kSpread:
      return spread_select(pod, feasible, all);
  }
  return std::nullopt;
}

bool SgxAwareScheduler::acts_on_unschedulable(
    const cluster::PodSpec& pod) const {
  return config_.enable_preemption && pod.priority > 0;
}

void SgxAwareScheduler::on_unschedulable(
    const cluster::PodSpec& pod, const std::vector<orch::NodeView>& all) {
  // Per node, collect strictly-lower-priority victims (cheapest first:
  // lowest priority, then smallest footprint) and check whether evicting
  // a prefix of them makes the pod fit. The node needing the fewest
  // victims wins; ties break by name.
  struct Candidate {
    cluster::NodeName node;
    std::vector<cluster::PodName> victims;
  };
  std::optional<Candidate> best;

  for (const orch::NodeView& view : all) {
    if (pod.wants_sgx() && !view.sgx_capable) continue;
    if (!pod.node_selector.empty() && pod.node_selector != view.name) {
      continue;
    }

    struct Victim {
      cluster::PodName name;
      int priority;
      cluster::ResourceAmounts request;
    };
    std::vector<Victim> victims;
    orch::PodFilter on_node;
    on_node.node = view.name;
    for (const orch::PodRecord* record : api().list_pods(on_node)) {
      if (record->spec.priority >= pod.priority) continue;
      victims.push_back(Victim{record->spec.name, record->spec.priority,
                               record->spec.total_requests()});
    }
    std::sort(victims.begin(), victims.end(),
              [](const Victim& a, const Victim& b) {
                if (a.priority != b.priority) return a.priority < b.priority;
                if (a.request.epc_pages != b.request.epc_pages) {
                  return a.request.epc_pages < b.request.epc_pages;
                }
                return a.request.memory < b.request.memory;
              });

    orch::NodeView hypothetical = view;
    std::vector<cluster::PodName> chosen;
    for (const Victim& victim : victims) {
      if (orch::fits(pod, hypothetical)) break;
      hypothetical.memory_used =
          hypothetical.memory_used >= victim.request.memory
              ? hypothetical.memory_used - victim.request.memory
              : Bytes{0};
      hypothetical.epc_used =
          hypothetical.epc_used >= victim.request.epc_pages
              ? hypothetical.epc_used - victim.request.epc_pages
              : Pages{0};
      hypothetical.epc_requested =
          hypothetical.epc_requested >= victim.request.epc_pages
              ? hypothetical.epc_requested - victim.request.epc_pages
              : Pages{0};
      chosen.push_back(victim.name);
    }
    if (!orch::fits(pod, hypothetical)) continue;  // even total eviction fails
    if (!best || chosen.size() < best->victims.size() ||
        (chosen.size() == best->victims.size() && view.name < best->node)) {
      best = Candidate{view.name, std::move(chosen)};
    }
  }

  if (!best || best->victims.empty()) return;
  for (const cluster::PodName& victim : best->victims) {
    api().evict(victim, "Preempted by higher-priority pod " + pod.name);
    ++preemptions_;
  }
}

}  // namespace sgxo::core
