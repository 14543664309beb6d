// Primary/replica replication for eved: journal shipping, bounded-staleness
// reads, and automatic failover (docs/REPLICATION.md).
//
// Topology: one PRIMARY accepts writes; N REPLICAS subscribe over the
// ordinary wire protocol (new kRepl* frame types in net/protocol.h). The
// primary tails its own write-ahead journal through Journal::SetObserver —
// every record it ships was already durable and committed locally — and
// each replica appends the shipped bytes to its OWN journal before applying
// them through the same batch-buffering tolerant replay path recovery uses
// (JournalReplayer), so a replica restart recovers from local files and
// resumes the stream from its applied version.
//
// Epoch fencing: every promotion increments an fsynced epoch. A hello whose
// epoch does not match the primary's current epoch (a rejoining old
// primary, or a replica that slept through a failover) is answered with a
// full checkpoint snapshot; installing it truncates the local journal —
// which is exactly how an old primary's unreplicated suffix is discarded.
//
// Positions: replication progress is measured in journal-record sequence
// numbers within an epoch (every journaled mutation advances it — MKB
// versions only move on capability changes, so they cannot order DEFINE
// traffic). The wire structs' *_version fields carry positions for
// progress and MKB versions only where labelled.
//
// Failover: replicas track the primary with the federation membership
// state machine (heartbeat = probe success, silence/socket loss = probe
// failure, reconnects on the deterministic capped backoff schedule). When
// the lease expires the replica turns CANDIDATE, status-probes the whole
// cluster, and — if a majority is reachable and no live primary answers —
// the deterministic ChooseLeader rule (max epoch, then max position, then
// min node id) nominates the candidate that runs a VOTE ROUND: it asks
// every node to vote for (epoch, candidate), where each node persists at
// most one vote per epoch (across restarts) and grants it only to
// candidates whose (epoch, position) is at least its own. Promotion
// requires a strict majority of explicit votes — merely observing a
// majority of statuses is not enough, so two candidates with asymmetric
// views of a partition can never both promote (their vote majorities
// would have to intersect, and the common voter votes once). Semi-sync
// commits wait for max(ack_replicas, floor(cluster/2)) replica acks, so
// the commit set intersects every vote majority and the up-to-date rule
// forces every electable leader to carry every acknowledged commit.

#ifndef EVE_NET_REPLICATION_H_
#define EVE_NET_REPLICATION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "eve/journal.h"
#include "federation/membership.h"
#include "net/console.h"
#include "net/protocol.h"
#include "net/server.h"

namespace eve {
namespace net {

class MetricsServer;

std::string_view ReplRoleToString(ReplRole role);

struct NodeAddress {
  std::string host;
  uint16_t port = 0;

  std::string ToString() const;
  bool operator==(const NodeAddress&) const = default;
};

// Parses "host:port".
Result<NodeAddress> ParseNodeAddress(const std::string& text);

// Parses a cluster spec "n1=host:port,n2=host:port,...". Node ids are
// opaque non-empty tokens without '=', ',' or whitespace.
Result<std::map<std::string, NodeAddress>> ParseCluster(
    const std::string& spec);

// The deterministic promotion rule: every candidate that sees the same
// status set picks the same winner — max epoch, then max applied_version
// (the position; so no acknowledged commit is lost), then min node_id.
// Returns the winning node id, or "" when `candidates` is empty.
std::string ChooseLeader(const std::vector<ReplStatus>& candidates);

struct ReplicationOptions {
  std::string node_id;
  std::map<std::string, NodeAddress> cluster;  // includes this node
  // Initial primary to follow (node id in `cluster`). Empty = this node
  // starts as the primary.
  std::string primary_of;
  // Directory for node_state (fsynced epoch), checkpoint and wal.
  std::string data_dir;
  // Primary-loss detection: a replica that has heard nothing (heartbeats,
  // records) from its primary for this long gives up and runs an election;
  // an isolated primary that has heard no replica (acks, hellos) for this
  // long demotes itself.
  uint64_t lease_micros = 1'000'000;
  uint64_t heartbeat_micros = 100'000;
  // Semi-sync: a committed write is acknowledged to the client only after
  // this many replicas acked its version (0 = async, acks only feed lag
  // gauges — an explicit opt-out of the zero-acked-loss guarantee).
  // Timeout turns the response into an explicit error — the client must
  // treat it as NOT committed. When non-zero the effective count is
  // clamped UP to floor(cluster_size / 2): the ack set must intersect
  // every election vote majority, or a majority excluding the most
  // advanced replica could elect a leader missing an acked commit.
  uint32_t ack_replicas = 1;
  uint64_t ack_timeout_micros = 2'000'000;
  // Records retained for resume — shipped ones on the primary, applied ones
  // on replicas (so a freshly promoted primary can serve resumes too).
  // Positions older than the ring bootstrap from a full snapshot instead.
  size_t ring_capacity = 65536;
  // Snapshot bootstraps ship the checkpoint in chunks of this many bytes:
  // checkpoints routinely outgrow the frame payload cap (kMaxPayload), so
  // a single-frame snapshot would be undeliverable. Must stay comfortably
  // under kMaxPayload. Tests shrink it to force multi-chunk transfers.
  size_t snapshot_chunk_bytes = 1u << 20;
};

// Monotonic replication counters (each individually atomic).
struct ReplicationStats {
  uint64_t records_shipped = 0;
  uint64_t snapshots_sent = 0;
  uint64_t resumes = 0;
  uint64_t acks_received = 0;
  uint64_t records_applied = 0;
  uint64_t snapshots_installed = 0;
  uint64_t stream_breaks = 0;  // replica-side resyncs (socket/epoch/fault)
  uint64_t promotions = 0;
  uint64_t demotions = 0;
  uint64_t ack_timeouts = 0;
};

// The shared replication brain of one node, attached to its Server and
// Console. On a primary it owns the shipped-record ring and the subscribed
// peer set; on a replica it owns the role/epoch/lag state the agent and
// the read path consult. Thread-safe: the journal observer runs under the
// server's exclusive console lock, acks arrive on the I/O thread, the
// agent mutates role state from its own thread.
class ReplicationHub {
 public:
  // Sends one encoded frame to a subscribed peer's session (enqueue +
  // nudge; safe from any thread).
  using PeerSender = std::function<void(std::string frame_bytes)>;

  ReplicationHub(ReplicationOptions options, Console* console);

  // Loads the fsynced epoch from data_dir/node_state and assumes the
  // initial role (primary_of empty = primary under epoch+1; otherwise
  // replica following primary_of).
  Status Initialize();

  const ReplicationOptions& options() const { return options_; }
  ReplRole role() const { return role_.load(); }
  uint64_t epoch() const { return epoch_.load(); }
  // The highest epoch this node has ever SEEN anywhere — its own, a
  // heartbeat's, a shipped record's, an election probe's. Persisted, and
  // used as the promotion fence: a new primary's epoch must exceed it, so
  // two primaries can never share an epoch even when a candidate never
  // managed to adopt the current one (e.g. its bootstrap kept failing).
  uint64_t observed_epoch() const { return observed_epoch_.load(); }
  void NoteObservedEpoch(uint64_t epoch);
  // The replication position (journal seq within the epoch): last assigned
  // on a primary, last locally-journaled on a replica.
  uint64_t position() const { return position_.load(); }
  // The MKB version the position corresponds to (display/status only).
  uint64_t applied_version() const { return applied_version_.load(); }
  size_t cluster_size() const { return options_.cluster.size(); }

  // --- Primary side ---------------------------------------------------------

  // Journal observer hook: called with every durable record the local
  // system journaled (under the exclusive console lock). No-op unless
  // primary.
  void OnJournalRecord(JournalRecordKind kind, std::string_view body);

  // Registers a replica subscription. MUST run under the exclusive console
  // lock so the snapshot/resume point and the observer stream cannot
  // leave a gap. Queues the bootstrap (snapshot or resumed records)
  // through `sender` before returning. Fails when this node is not the
  // primary or a repl.* failpoint refuses the subscription.
  Status Subscribe(const ReplHello& hello, uint64_t session_id,
                   PeerSender sender);

  void OnAck(const ReplAck& ack);
  void OnPeerGone(uint64_t session_id);

  // Broadcasts a heartbeat to every subscribed replica (primary only).
  void BroadcastHeartbeat();

  // True when committed writes must wait for replica acks (ack_replicas
  // clamped to the peers the cluster can actually have).
  bool RequiresAck() const;

  // The replica-ack count semi-sync commits actually wait for: 0 when
  // ack_replicas is 0 (explicit async opt-out) or the cluster has no
  // peers; otherwise max(ack_replicas, floor(cluster/2)) capped at the
  // peer count, so the acked set intersects every election vote majority.
  uint64_t effective_ack_replicas() const;

  // Blocks until `position` is acked by effective_ack_replicas() peers,
  // or the ack timeout elapses (returns false — the caller reports the
  // commit as NOT acknowledged).
  bool WaitForReplication(uint64_t position);

  // Micros since any replica last acked or subscribed (primary isolation
  // signal).
  uint64_t MicrosSinceReplicaContact() const;

  // --- Replica side ---------------------------------------------------------

  // Records progress: `seq` was journaled locally and fed to the replayer,
  // leaving the system at MKB version `version`.
  void SetAppliedPosition(uint64_t seq, uint64_t version);
  // Heartbeat intake: remembers the primary's tip position and renews the
  // staleness clock (tip_version field carries the position).
  void OnPrimaryHeartbeat(const ReplHeartbeat& heartbeat);
  // The address this node currently believes is the primary ("" unknown).
  std::string primary_address() const;
  void SetPrimaryAddress(const std::string& address);

  // Staleness contract: on a replica, lag = primary tip position (last
  // heartbeat or record) − applied position; a lease-stale heartbeat makes
  // the lag unknown (treated as exceeding every bound). Non-replicas
  // always pass with lag 0. Returns false when `bound` is exceeded.
  bool WithinStalenessBound(uint64_t bound, uint64_t* lag_out,
                            bool* lag_known_out) const;

  // --- Role transitions (agent thread; caller holds the exclusive console
  // lock for the journal attach/detach) ---------------------------------------

  // Becomes primary under `new_epoch`: persists the epoch, reattaches the
  // WAL to the serving system, clears the ring, accepts writes.
  Status Promote(uint64_t new_epoch);
  // Primary -> candidate (isolation) or candidate/replica bookkeeping:
  // detaches the WAL, drops subscribed peers.
  Status Demote(ReplRole to);
  // Replica adopting a freshly installed snapshot's epoch. Also drops the
  // resume ring: the install jumped the position, so the retained tail is
  // from an abandoned lineage.
  Status AdoptEpoch(uint64_t epoch);
  // Resumed replica adopting the primary's newer epoch mid-stream. Unlike
  // AdoptEpoch this KEEPS the resume ring: a resume certifies the local
  // tail as a prefix of the new lineage, not an abandoned one.
  Status RaiseEpoch(uint64_t epoch);
  // Replica-side ring maintenance: retains an applied record so that, if
  // this node is later promoted, peers one failover behind can resume from
  // its ring instead of re-bootstrapping a full snapshot.
  void RetainApplied(uint64_t seq, uint8_t kind, std::string_view body);

  // --- Elections ------------------------------------------------------------

  // Decides one vote request (any role, any thread). A vote is granted
  // only when ALL of:
  //  * the requested epoch exceeds this node's lineage epoch,
  //  * this node has not voted for a DIFFERENT candidate in that epoch
  //    (the vote is persisted in node_state before the grant is returned,
  //    so a restart cannot double-vote),
  //  * the candidate's (last_epoch, last_position) is at least this
  //    node's own (the up-to-date rule: no acked commit may be lost),
  //  * this node does not currently follow a live primary (leader
  //    stickiness: a reachable primary's replicas refuse to depose it).
  // The requested epoch is always folded into observed_epoch().
  ReplVote HandleVoteRequest(const ReplVoteReq& request);

  // --- Introspection --------------------------------------------------------

  ReplStatus SelfStatus() const;
  // SHOW REPLICATION body (primary lists per-replica applied/lag rows).
  std::string RenderStatus() const;
  // Prometheus-style gauge/counter lines (eve_repl_*).
  std::string MetricsText() const;
  ReplicationStats stats() const;

  // Counts hub-visible stream breaks (replica agent reports its resyncs).
  void CountStreamBreak() { stream_breaks_.fetch_add(1); }
  void CountSnapshotInstalled() { snapshots_installed_.fetch_add(1); }
  void CountRecordApplied() { records_applied_.fetch_add(1); }

  // Crash funnel for the agent thread: a SimulatedCrash caught outside a
  // server callback is recorded here; eved exits 3 when set.
  void RecordCrash(const std::string& site);
  std::string crashed_site() const;

 private:
  struct ShippedRecord {
    uint64_t seq = 0;
    uint8_t kind = 0;
    std::string body;
  };
  struct Peer {
    std::string node_id;
    uint64_t session_id = 0;
    PeerSender sender;
    uint64_t acked_seq = 0;
    uint64_t acked_version = 0;
    uint64_t last_contact_micros = 0;
  };

  // Writes node_state with `epoch`, the (monotonic) observed epoch, and
  // the persisted vote.
  Status PersistEpoch(uint64_t epoch);
  // Raises observed_epoch_ to `epoch` in memory only; true when it rose.
  bool RaiseObservedEpoch(uint64_t epoch);
  // Serializes every node_state write so a concurrent best-effort
  // observed-epoch write can never clobber a just-persisted vote. Caller
  // holds state_mu_.
  Status WriteNodeStateLocked(uint64_t epoch);

  const ReplicationOptions options_;
  Console* const console_;

  std::atomic<ReplRole> role_{ReplRole::kSingle};
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint64_t> observed_epoch_{0};
  std::atomic<uint64_t> position_{0};
  // The position this node held when it (last) became primary. Resumes
  // from an OLDER epoch are only offered up to this base: anything past
  // it under an old epoch is a divergent suffix this primary never saw.
  std::atomic<uint64_t> promotion_base_position_{0};
  std::atomic<uint64_t> applied_version_{0};
  // Replica-side staleness clock: the primary's last-announced tip
  // position and when it was heard.
  std::atomic<uint64_t> primary_tip_position_{0};
  std::atomic<uint64_t> last_heartbeat_micros_{0};
  std::atomic<uint64_t> last_peer_contact_micros_{0};

  mutable std::mutex mu_;  // ring, peers, primary address
  std::condition_variable ack_cv_;
  std::deque<ShippedRecord> ring_;
  std::map<uint64_t, Peer> peers_;  // by session id
  std::string primary_address_;

  // Vote ledger + node_state writes (votes are decided under this lock
  // and persisted before they are returned).
  mutable std::mutex state_mu_;
  uint64_t voted_epoch_ = 0;
  std::string voted_for_;

  std::atomic<uint64_t> records_shipped_{0};
  std::atomic<uint64_t> snapshots_sent_{0};
  std::atomic<uint64_t> resumes_{0};
  std::atomic<uint64_t> acks_received_{0};
  std::atomic<uint64_t> records_applied_{0};
  std::atomic<uint64_t> snapshots_installed_{0};
  std::atomic<uint64_t> stream_breaks_{0};
  std::atomic<uint64_t> promotions_{0};
  std::atomic<uint64_t> demotions_{0};
  std::atomic<uint64_t> ack_timeouts_{0};

  mutable std::mutex crash_mu_;
  std::string crashed_site_;
};

// The replica-side driver thread: follows the primary (subscribe, apply,
// ack), detects its loss through the federation lease machinery, runs
// elections as a candidate, and — on a primary — emits heartbeats and the
// isolation self-demotion check. One agent runs on EVERY clustered node;
// it is dormant-but-watchful in the primary role.
class ReplicaAgent {
 public:
  ReplicaAgent(ReplicationHub* hub, Console* console, Server* server);
  ~ReplicaAgent();

  void Start();
  void Stop();  // joins the thread

 private:
  void ThreadMain();
  void PrimaryTick();
  // One subscribe/apply session against the current primary; returns when
  // the stream breaks or the role changes. Returns false when the lease
  // expired (caller turns candidate).
  bool RunReplicaSession();
  void RunElection();
  // Folds one snapshot chunk into the in-progress transfer; when the last
  // chunk lands, installs the assembled checkpoint. Chunks must arrive in
  // offset order with consistent (epoch, version, total).
  Status AcceptSnapshotChunk(const ReplSnapshot& chunk);
  // Installs a snapshot bootstrap durably (journal reset FIRST, then the
  // checkpoint file, then memory — a crash between the two recovers to a
  // stale-but-consistent state that simply re-syncs) and in memory.
  Status InstallSnapshot(const ReplSnapshot& snapshot);
  // Applies one shipped record: local WAL append (verbatim), tolerant
  // replay, position update — all under the exclusive console lock.
  Status ApplyRecord(const ReplRecord& record);
  // Turns this node into a replica of `address`, with a fresh lease.
  void BecomeReplicaOf(const std::string& address);
  // Probes `address` with kReplStatusReq; nullopt on timeout/refusal.
  std::optional<ReplStatus> ProbeNode(const NodeAddress& address);
  // Asks `address` to vote for `request`; nullopt on timeout/refusal (a
  // node that cannot answer has not voted — it counts as no vote).
  std::optional<ReplVote> RequestVote(const NodeAddress& address,
                                      const ReplVoteReq& request);
  bool Stopping() const;
  void SleepMicros(uint64_t micros);  // stop-responsive

  ReplicationHub* const hub_;
  Console* const console_;
  Server* const server_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  // The primary tracked as a federation "source": heartbeats renew the
  // lease, silence and socket loss escalate HEALTHY -> SUSPECT ->
  // QUARANTINED on the deterministic backoff schedule, lease expiry is
  // the failover trigger. Ticks are milliseconds.
  federation::SourceConfig lease_config_;
  federation::SourceMembership primary_lease_;
  uint64_t reconnect_attempt_ = 0;
  uint64_t election_attempt_ = 0;
  // True while local durable state exactly matches (epoch, position): the
  // next hello announces them and the primary resumes from the ring when
  // it can. Benign stream breaks (socket loss, goodbye, a missed record)
  // keep it — the seq check re-ships exactly what was missed. It drops on
  // a failed install/apply (state indeterminate), after a primary stint
  // (the local suffix may be unreplicated), and at process start (the
  // position is not persisted).
  bool stream_intact_ = false;
  JournalReplayer replayer_;
  // In-progress chunked snapshot transfer: header of the first chunk plus
  // the bytes assembled so far.
  std::optional<ReplSnapshot> pending_snapshot_;
};

// One fully wired replicated eved node: console + durable state (RECOVER
// from data_dir, WAL attached), server, hub, agent and optional /metrics
// endpoint. eved (--cluster), replication_test and bench_repl all run
// nodes through this, so process-level chaos and in-process tests exercise
// the same bring-up.
struct ReplicatedNodeOptions {
  ServerOptions server;
  ReplicationOptions repl;
  uint16_t metrics_port = 0;  // 0 = no metrics endpoint
  std::string metrics_host = "127.0.0.1";
};

class ReplicatedNode {
 public:
  ReplicatedNode();
  ~ReplicatedNode();

  ReplicatedNode(const ReplicatedNode&) = delete;
  ReplicatedNode& operator=(const ReplicatedNode&) = delete;

  // Recovers durable state from repl.data_dir (checkpoint + wal), attaches
  // the WAL, wires hub/server/agent and starts serving.
  Status Start(const ReplicatedNodeOptions& options);

  uint16_t port() const;
  uint16_t metrics_port() const;
  Console& console() { return console_; }
  Server& server() { return *server_; }
  ReplicationHub& hub() { return *hub_; }

  void BeginDrain();
  void Stop();
  void WaitUntilStopped();
  bool stopped() const;
  // Non-empty when a crash-mode failpoint fired anywhere in the node
  // (serving path or replication agent).
  std::string crashed_site() const;

 private:
  Console console_;
  std::unique_ptr<ReplicationHub> hub_;
  std::unique_ptr<Server> server_;
  std::unique_ptr<ReplicaAgent> agent_;
  std::unique_ptr<MetricsServer> metrics_;
};

}  // namespace net
}  // namespace eve

#endif  // EVE_NET_REPLICATION_H_
