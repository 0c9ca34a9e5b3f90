#include "workload/stress_sgx.hpp"

#include <algorithm>
#include <cctype>

#include "sgx/sdk.hpp"

namespace sgxo::workload {

const char* to_string(StressorKind kind) {
  switch (kind) {
    case StressorKind::kVm: return "vm";
    case StressorKind::kEpc: return "epc";
  }
  return "?";
}

Bytes StressPlan::total_epc_bytes() const {
  Bytes total{};
  for (const StressorSpec& spec : stressors) {
    if (spec.kind == StressorKind::kEpc) {
      total += Bytes{spec.bytes.count() *
                     static_cast<std::uint64_t>(spec.workers)};
    }
  }
  return total;
}

Bytes StressPlan::total_vm_bytes() const {
  Bytes total{};
  for (const StressorSpec& spec : stressors) {
    if (spec.kind == StressorKind::kVm) {
      total += Bytes{spec.bytes.count() *
                     static_cast<std::uint64_t>(spec.workers)};
    }
  }
  return total;
}

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw StressArgError{"stress-sgx: " + message};
}

/// stress-ng size syntax: a number with optional k/m/g suffix (binary).
Bytes parse_size(const std::string& text) {
  if (text.empty()) fail("empty size");
  std::size_t pos = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(text, &pos);
  } catch (...) {
    fail("malformed size '" + text + "'");
  }
  std::uint64_t multiplier = 1;
  if (pos < text.size()) {
    if (pos + 1 != text.size()) fail("malformed size '" + text + "'");
    switch (std::tolower(static_cast<unsigned char>(text[pos]))) {
      case 'k': multiplier = 1ULL << 10; break;
      case 'm': multiplier = 1ULL << 20; break;
      case 'g': multiplier = 1ULL << 30; break;
      default: fail("unknown size suffix in '" + text + "'");
    }
  }
  return Bytes{value * multiplier};
}

/// stress-ng timeout syntax: seconds, or m/h suffix.
Duration parse_timeout(const std::string& text) {
  if (text.empty()) fail("empty timeout");
  std::size_t pos = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(text, &pos);
  } catch (...) {
    fail("malformed timeout '" + text + "'");
  }
  if (pos == text.size()) return Duration::seconds(static_cast<long>(value));
  if (pos + 1 != text.size()) fail("malformed timeout '" + text + "'");
  switch (std::tolower(static_cast<unsigned char>(text[pos]))) {
    case 's': return Duration::seconds(static_cast<long>(value));
    case 'm': return Duration::minutes(static_cast<long>(value));
    case 'h': return Duration::hours(static_cast<long>(value));
    default: fail("unknown timeout suffix in '" + text + "'");
  }
}

int parse_count(const std::string& text) {
  try {
    const int n = std::stoi(text);
    if (n <= 0) fail("worker count must be positive");
    return n;
  } catch (const StressArgError&) {
    throw;
  } catch (...) {
    fail("malformed worker count '" + text + "'");
  }
}

}  // namespace

StressPlan parse_stress_args(const std::vector<std::string>& args) {
  StressPlan plan;
  std::optional<StressorSpec> vm;
  std::optional<StressorSpec> epc;

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) fail("flag " + arg + " needs a value");
      return args[++i];
    };
    if (arg == "--vm") {
      if (!vm.has_value()) vm.emplace();
      vm->kind = StressorKind::kVm;
      vm->workers = parse_count(next());
    } else if (arg == "--vm-bytes") {
      if (!vm.has_value()) vm.emplace();
      vm->bytes = parse_size(next());
    } else if (arg == "--epc") {
      if (!epc.has_value()) epc.emplace();
      epc->kind = StressorKind::kEpc;
      epc->workers = parse_count(next());
    } else if (arg == "--epc-bytes") {
      if (!epc.has_value()) epc.emplace();
      epc->kind = StressorKind::kEpc;
      epc->bytes = parse_size(next());
    } else if (arg == "--timeout") {
      plan.timeout = parse_timeout(next());
    } else {
      fail("unknown flag '" + arg + "'");
    }
  }
  if (vm.has_value()) {
    if (vm->bytes.count() == 0) fail("--vm needs --vm-bytes");
    plan.stressors.push_back(*vm);
  }
  if (epc.has_value()) {
    if (epc->bytes.count() == 0) fail("--epc needs --epc-bytes");
    plan.stressors.push_back(*epc);
  }
  if (plan.stressors.empty()) fail("no stressors requested");
  return plan;
}

std::vector<StressorReport> StressRunner::run(const StressPlan& plan,
                                              sgx::Pid pid,
                                              const sgx::CgroupPath& cgroup) {
  SGXO_CHECK_MSG(plan.timeout > Duration{}, "stress plan needs a timeout");
  std::vector<StressorReport> reports;

  // Baseline iteration cost: touching one MiB of resident memory.
  constexpr double kMicrosPerMibTouched = 50.0;

  for (const StressorSpec& spec : plan.stressors) {
    for (int w = 0; w < spec.workers; ++w) {
      StressorReport report;
      report.kind = spec.kind;

      if (spec.kind == StressorKind::kVm) {
        // Plain memory: constant op rate, sub-millisecond startup.
        report.startup = sgx::PerfModel::kStandardStartup;
        const double per_op_us =
            std::max(1.0, spec.bytes.as_mib() * kMicrosPerMibTouched);
        report.elapsed = plan.timeout;
        report.bogo_ops = static_cast<std::uint64_t>(
            plan.timeout.as_millis() * 1000.0 / per_op_us);
        reports.push_back(report);
        continue;
      }

      // EPC stressor: build the enclave (Fig. 6 startup), then ecall
      // rounds whose latency scales with the node's paging slowdown.
      sgx::Sdk sdk{*driver_, *perf_};
      auto launch = sdk.launch_enclave(pid, cgroup, spec.bytes);
      report.startup = sgx::PerfModel::kPswStartup + launch.latency;

      const Duration budget =
          plan.timeout > report.startup ? plan.timeout - report.startup
                                        : Duration{};
      const Duration per_op_native = Duration::micros(
          static_cast<std::int64_t>(std::max(
              1.0, spec.bytes.as_mib() * kMicrosPerMibTouched)));
      Duration spent{};
      while (spent < budget) {
        const Duration op = launch.enclave.ecall(per_op_native);
        spent += op;
        ++report.bogo_ops;
        if (report.bogo_ops > 100'000'000ULL) break;  // runaway guard
      }
      report.elapsed = budget;
      reports.push_back(report);
    }
  }
  return reports;
}

}  // namespace sgxo::workload
