#include <gtest/gtest.h>

#include "cluster/container_runtime.hpp"
#include "cluster/image_registry.hpp"
#include "common/error.hpp"

namespace sgxo::cluster {
namespace {

using namespace sgxo::literals;

ContainerSpec spec(const std::string& image = "img") {
  ContainerSpec s;
  s.name = "main";
  s.image = image;
  return s;
}

TEST(ContainerRuntime, CgroupPathSharedWithinPodDistinctAcrossPods) {
  // The §V-D identifier properties the limit channel relies on.
  ContainerRuntime rt;
  const ContainerId a1 = rt.run("pod-a", spec(), {});
  const ContainerId a2 = rt.run("pod-a", spec(), {});
  const ContainerId b = rt.run("pod-b", spec(), {});
  EXPECT_EQ(rt.info(a1).cgroup, rt.info(a2).cgroup);
  EXPECT_NE(rt.info(a1).cgroup, rt.info(b).cgroup);
  // And the path is derivable before any container starts.
  EXPECT_EQ(rt.info(a1).cgroup, ContainerRuntime::cgroup_path_for("pod-a"));
}

TEST(ContainerRuntime, AssignsUniquePids) {
  ContainerRuntime rt;
  const ContainerId c1 = rt.run("pod-a", spec(), {});
  const ContainerId c2 = rt.run("pod-a", spec(), {});
  EXPECT_NE(rt.info(c1).pid, rt.info(c2).pid);
}

TEST(ContainerRuntime, DeviceMountsRecorded) {
  ContainerRuntime rt;
  const ContainerId id = rt.run("pod-a", spec(), {"/dev/isgx"});
  ASSERT_EQ(rt.info(id).device_mounts.size(), 1u);
  EXPECT_EQ(rt.info(id).device_mounts[0], "/dev/isgx");
}

TEST(ContainerRuntime, KillRemovesContainer) {
  ContainerRuntime rt;
  const ContainerId id = rt.run("pod-a", spec(), {});
  EXPECT_TRUE(rt.running(id));
  rt.kill(id);
  EXPECT_FALSE(rt.running(id));
  EXPECT_THROW(rt.kill(id), ContractViolation);
  EXPECT_THROW((void)rt.info(id), ContractViolation);
}

TEST(ContainerRuntime, KillPodRemovesAllItsContainers) {
  ContainerRuntime rt;
  (void)rt.run("pod-a", spec(), {});
  (void)rt.run("pod-a", spec(), {});
  const ContainerId other = rt.run("pod-b", spec(), {});
  rt.kill_pod("pod-a");
  EXPECT_EQ(rt.container_count(), 1u);
  EXPECT_TRUE(rt.running(other));
}

TEST(ContainerRuntime, RejectsEmptyPodName) {
  ContainerRuntime rt;
  EXPECT_THROW((void)rt.run("", spec(), {}), ContractViolation);
}

TEST(ImageRegistry, PublishAndQuery) {
  ImageRegistry registry;
  registry.publish("app:v1", 200_MiB);
  EXPECT_TRUE(registry.has("app:v1"));
  EXPECT_FALSE(registry.has("app:v2"));
  EXPECT_EQ(registry.size_of("app:v1"), 200_MiB);
  EXPECT_THROW((void)registry.size_of("app:v2"), DomainError);
}

TEST(ImageRegistry, PullLatencyScalesWithSize) {
  // 1 Gbit/s network (125 MB/s) as in the paper's testbed.
  ImageRegistry registry{125e6};
  registry.publish("small", Bytes{125'000'000 / 10});  // 12.5 MB
  registry.publish("large", Bytes{125'000'000});       // 125 MB
  EXPECT_NEAR(registry.pull_latency("small").as_seconds(), 0.1, 1e-6);
  EXPECT_NEAR(registry.pull_latency("large").as_seconds(), 1.0, 1e-6);
  EXPECT_THROW((void)registry.pull_latency("ghost"), DomainError);
}

TEST(ImageRegistry, RepublishUpdatesSize) {
  ImageRegistry registry;
  registry.publish("app", 100_MiB);
  registry.publish("app", 300_MiB);
  EXPECT_EQ(registry.size_of("app"), 300_MiB);
}

TEST(ImageRegistry, RejectsBadInput) {
  EXPECT_THROW(ImageRegistry{0.0}, ContractViolation);
  ImageRegistry registry;
  EXPECT_THROW(registry.publish("", 1_MiB), ContractViolation);
}

TEST(ImageCache, StoreAndHit) {
  ImageCache cache;
  EXPECT_FALSE(cache.cached("app"));
  cache.store("app");
  EXPECT_TRUE(cache.cached("app"));
  cache.store("app");  // idempotent
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace sgxo::cluster
