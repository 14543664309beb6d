// A primary and one replica as in-process ReplicatedNodes (semi-sync with
// the given ack count, every journal append fsynced on both), and the
// replication probe deep-search's traced run uses to measure the
// replication layer: the same change stream against a pair that waits for
// one replica ack and against one that does not.

#ifndef PERFBENCH_HARNESS_REPLICATION_PROBE_H_
#define PERFBENCH_HARNESS_REPLICATION_PROBE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/client.h"
#include "net/replication.h"
#include "remote.h"

namespace perfbench {

// Polls `done` every millisecond until it holds or `timeout_ns` passes.
bool WaitUntil(const std::function<bool()>& done, uint64_t timeout_ns);

eve::Result<eve::net::NetClient> Connect(uint16_t port);

// Runs `statements` in order on one session; fails on the first error.
bool RunAll(uint16_t port, const std::vector<std::string>& statements,
            std::string* error);

// A primary ("p") and its replica ("r"), each with its own data dir under
// the root passed to Start.
class NodePair {
 public:
  NodePair() = default;
  ~NodePair() { Stop(); }
  NodePair(const NodePair&) = delete;
  NodePair& operator=(const NodePair&) = delete;

  // Starts both nodes and waits until the replica has subscribed.
  bool Start(const std::string& root, uint32_t ack_replicas,
             std::string* error);
  void Stop();

  eve::net::ReplicatedNode& primary() { return *nodes_[0]; }
  eve::net::ReplicatedNode& replica() { return *nodes_[1]; }
  uint16_t port(size_t i) const { return ports_[i]; }

 private:
  std::array<std::unique_ptr<eve::net::ReplicatedNode>, 2> nodes_;
  std::array<uint16_t, 2> ports_{};
};

struct ReplicationProbe {
  double ack1_p50_us = 0.0;  // change p50 with one replica ack
  double ack0_p50_us = 0.0;  // the same stream without waiting (ack 0)
  double lag_records = 0.0;  // mean primary - replica position, ack 1
};

// Loads `setup` into a fresh pair, then runs `block` ("{base}" replaced by
// the set-up version) from one session for `seconds`, once with ack 1 and
// once with ack 0.
bool ProbeReplication(const std::vector<std::string>& setup,
                      const std::vector<Step>& block, double seconds,
                      const std::string& dir, ReplicationProbe* probe,
                      std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_REPLICATION_PROBE_H_
