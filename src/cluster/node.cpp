#include "cluster/node.hpp"

namespace sgxo::cluster {

namespace {

std::unique_ptr<sgx::Driver> make_driver(const MachineSpec& spec,
                                         bool enforce) {
  if (!spec.epc.has_value()) return nullptr;
  sgx::DriverConfig config;
  config.epc = *spec.epc;
  config.enforce_limits = enforce;
  config.version = spec.sgx_version;
  return std::make_unique<sgx::Driver>(config);
}

}  // namespace

Node::Node(MachineSpec spec, bool enforce_epc_limits)
    : spec_(std::move(spec)),
      driver_(make_driver(spec_, enforce_epc_limits)),
      plugin_(driver_.get()),
      allocator_(plugin_.advertised_pages()) {}

void Node::reboot() {
  cache_.clear();
  ready_ = true;
}

Bytes Node::memory_used() const { return runtime_.memory_usage(); }

}  // namespace sgxo::cluster
