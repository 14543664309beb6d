#include "replication_probe.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <map>
#include <thread>

namespace perfbench {
namespace {

uint16_t ReservePort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return 0;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const uint16_t port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

}  // namespace

bool WaitUntil(const std::function<bool()>& done, uint64_t timeout_ns) {
  const uint64_t deadline = NowNs() + timeout_ns;
  while (NowNs() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

eve::Result<eve::net::NetClient> Connect(uint16_t port) {
  eve::net::ClientOptions options;
  options.port = port;
  options.max_shed_retries = 0;
  return eve::net::NetClient::Connect(options);
}

bool RunAll(uint16_t port, const std::vector<std::string>& statements,
            std::string* error) {
  eve::Result<eve::net::NetClient> client = Connect(port);
  if (!client.ok()) {
    *error = client.status().ToString();
    return false;
  }
  for (const std::string& statement : statements) {
    eve::Result<eve::net::Response> response = client.value().Run(statement);
    if (!response.ok() || response.value().code != 0) {
      *error = "'" + statement + "' failed: " +
               (response.ok() ? response.value().error
                              : response.status().ToString());
      return false;
    }
  }
  return true;
}

bool NodePair::Start(const std::string& root, uint32_t ack_replicas,
                     std::string* error) {
  const std::array<std::string, 2> dirs = {root + "/p", root + "/r"};
  for (const std::string& dir : dirs) {
    RemoveTree(dir);
    MakeDirs(dir);
  }
  ports_ = {ReservePort(), ReservePort()};
  const std::map<std::string, eve::net::NodeAddress> cluster = {
      {"p", {"127.0.0.1", ports_[0]}}, {"r", {"127.0.0.1", ports_[1]}}};
  const char* ids[] = {"p", "r"};
  for (size_t i = 0; i < 2; ++i) {
    eve::net::ReplicatedNodeOptions options;
    options.server.host = "127.0.0.1";
    options.server.port = ports_[i];
    options.server.worker_threads = 4;
    options.repl.node_id = ids[i];
    options.repl.cluster = cluster;
    options.repl.primary_of = i == 0 ? "" : "p";
    options.repl.data_dir = dirs[i];
    // Long enough that load never looks like a dead primary.
    options.repl.lease_micros = 5'000'000;
    options.repl.heartbeat_micros = 100'000;
    options.repl.ack_replicas = ack_replicas;
    options.repl.ack_timeout_micros = 5'000'000;
    nodes_[i] = std::make_unique<eve::net::ReplicatedNode>();
    const eve::Status started = nodes_[i]->Start(options);
    if (!started.ok()) {
      *error = std::string("start ") + ids[i] + ": " + started.ToString();
      return false;
    }
  }
  if (!WaitUntil(
          [this] {
            const eve::net::ReplicationStats s = primary().hub().stats();
            return s.snapshots_sent + s.resumes >= 1;
          },
          10'000'000'000ULL)) {
    *error = "the replica did not subscribe within 10 s";
    return false;
  }
  return true;
}

void NodePair::Stop() {
  for (auto& node : nodes_) {
    if (node != nullptr) {
      node->Stop();
      node->WaitUntilStopped();
      node.reset();
    }
  }
}

bool ProbeReplication(const std::vector<std::string>& setup,
                      const std::vector<Step>& block, double seconds,
                      const std::string& dir, ReplicationProbe* probe,
                      std::string* error) {
  for (uint32_t ack : {1u, 0u}) {
    NodePair pair;
    if (!pair.Start(dir + "/ack" + std::to_string(ack), ack, error) ||
        !RunAll(pair.port(0), setup, error)) {
      return false;
    }
    eve::Result<eve::net::NetClient> client = Connect(pair.port(0));
    if (!client.ok()) {
      *error = client.status().ToString();
      return false;
    }
    eve::Result<eve::net::Response> versions =
        client.value().Run("SHOW VERSIONS");
    if (!versions.ok()) {
      *error = versions.status().ToString();
      return false;
    }
    std::vector<Step> steps = block;
    for (Step& step : steps) {
      const size_t at = step.statement.find("{base}");
      if (at != std::string::npos) {
        step.statement.replace(
            at, 6, std::to_string(TipVersion(versions.value().output)));
      }
    }
    std::vector<double> lag;
    std::atomic<bool> done{false};
    std::thread sampler([&] {
      while (!done.load()) {
        const uint64_t p = pair.primary().hub().position();
        const uint64_t r = pair.replica().hub().position();
        lag.push_back(p > r ? static_cast<double>(p - r) : 0.0);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
    std::vector<Recorded> log;
    WriterOptions options{&steps,
                          NowNs() + static_cast<uint64_t>(seconds * 1e9), true,
                          ""};
    const bool ok = RunWriter(&client.value(), options, &log, error);
    done.store(true);
    sampler.join();
    if (!ok) return false;
    std::vector<double> us;
    for (const Recorded& rec : log) {
      if (rec.code != 0) {
        *error = "'" + rec.step->statement + "' failed: " + rec.error;
        return false;
      }
      if (rec.step->timed) {
        us.push_back(static_cast<double>(rec.end_ns - rec.start_ns) / 1e3);
      }
    }
    if (ack == 1) {
      probe->ack1_p50_us = Percentile(us, 50);
      probe->lag_records = Mean(lag);
    } else {
      probe->ack0_p50_us = Percentile(us, 50);
    }
  }
  return true;
}

}  // namespace perfbench
