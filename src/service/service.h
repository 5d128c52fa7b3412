#ifndef KOSR_SERVICE_SERVICE_H_
#define KOSR_SERVICE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "src/core/engine.h"
#include "src/core/query.h"
#include "src/core/snapshot.h"
#include "src/durability/journal.h"
#include "src/service/metrics.h"
#include "src/service/result_cache.h"
#include "src/service/snapshot_domain.h"
#include "src/util/sync.h"

namespace kosr::service {

/// Failpoint between the journal fsync and the engine mutation of a batch
/// apply — a crash here loses in-memory state the journal already holds,
/// so recovery must replay it.
inline constexpr char kFailpointMidBatchApply[] = "batch-mid-apply";

/// Durability wiring handed to the service by the recovery path (ISSUE 9).
/// Default-constructed (no journal) the service runs exactly as before —
/// purely in-memory, zero overhead on the update path.
struct DurabilityAttachment {
  /// Open journal, sequences continuing past everything recovered.
  std::unique_ptr<durability::UpdateJournal> journal;
  /// Directory holding journal + checkpoints (= RecoveryOptions::dir).
  std::string dir;
  /// Journal size that triggers an automatic checkpoint (0 = only the
  /// CHECKPOINT verb and graceful shutdown checkpoint).
  uint64_t checkpoint_bytes = 0;
  /// Whether a checkpoint already exists on disk, and its sequence —
  /// lets the service skip redundant checkpoints when nothing changed.
  bool checkpoint_loaded = false;
  uint64_t checkpoint_seq = 0;
  /// Recovery statistics, surfaced through METRICS.
  uint64_t replayed_records = 0;
  double recovery_s = 0;
  /// Engine counters the replay bumped (its label repairs), folded into
  /// METRICS at construction.
  obs::EngineCounters replay_counters;
};

/// Result of an explicit checkpoint request.
struct CheckpointAck {
  /// False when the service skipped the write because the newest
  /// checkpoint already covers every applied update.
  bool written = false;
  /// Last journal sequence the on-disk checkpoint now covers.
  uint64_t seq = 0;
};

struct ServiceConfig {
  /// Worker threads answering queries. 0 picks hardware concurrency.
  uint32_t num_workers = 0;
  /// Bounded request queue; SubmitAsync rejects beyond this depth.
  size_t queue_capacity = 256;
  /// Total result-cache entries across shards (0 disables caching).
  size_t cache_capacity = 1024;
  size_t cache_shards = 8;
  /// Per-query time budget applied when a request does not set its own
  /// (0 = unlimited). Admission control only rejects at the door; this
  /// bounds the damage of a pathological query that already got in —
  /// essential for the serve front-end, which accepts untrusted queries.
  double default_time_budget_s = 0;
  /// Spawn workers in the constructor. Tests set false to fill the queue
  /// deterministically, then call Start().
  bool start_workers = true;
  /// Completed requests at or above this end-to-end latency are retained
  /// verbatim (descriptor + stage spans) in the slow-query ring buffer.
  /// 0 disables the slow log.
  double slow_query_threshold_s = 0;
  /// Ring-buffer capacity of the slow-query log (oldest entries drop).
  size_t slow_log_capacity = 32;
  /// Sample every Nth request per worker for the engine-internal stage
  /// spans (NN and enumerate need per-phase timers inside the search; the
  /// cheap queue-wait/serialize spans are always recorded).
  /// 0 disables engine-phase sampling entirely.
  uint32_t stage_sample_every = 64;
  /// Edge updates arriving within this window batch into one repair and one
  /// published snapshot (seconds; 0 = apply each update immediately).
  double update_batch_window_s = 0;
};

struct ServiceRequest {
  KosrQuery query;
  KosrOptions options;
};

enum class ResponseStatus {
  kOk,
  kRejected,  ///< Backpressure: queue at capacity, request never enqueued.
  kError,     ///< The engine threw; `error` has the message.
  kShutdown,  ///< Service stopped before the request was processed.
};

struct ServiceResponse {
  ResponseStatus status = ResponseStatus::kOk;
  KosrResult result;
  bool cache_hit = false;
  double latency_s = 0;  ///< Enqueue -> completion (includes queue wait).
  /// Version of the snapshot the answer was computed against (cache hits:
  /// the pinned version that accepted the entry). 0 for requests that
  /// never reached a worker (rejected/shutdown).
  uint64_t snapshot_version = 0;
  std::string error;

  bool ok() const { return status == ResponseStatus::kOk; }
};

/// Outcome of a dynamic-update call (ISSUE 8). With a zero batch window
/// every update applies synchronously (`applied` = true and `summary`
/// describes the repair); with a positive window edge updates buffer until
/// the window closes (`applied` = false, `summary` empty) and
/// `snapshot_version` reports the still-current snapshot.
struct UpdateAck {
  bool applied = false;
  /// Buffered updates (this one included) waiting for the window to close.
  /// 0 on the synchronous path.
  uint64_t pending = 0;
  /// Version of the published snapshot after this call returned.
  uint64_t snapshot_version = 0;
  /// Repair summary of the batch this update was applied in (sync path:
  /// just this update). Empty while the update is still buffered.
  EdgeUpdateSummary summary;
};

/// Long-lived serving layer over a built KosrEngine (ISSUE 2 tentpole,
/// rebuilt on epoch-based snapshots in ISSUE 8; see DESIGN.md, "Serving
/// layer" and "Snapshot publication").
///
/// Requests enter a bounded FIFO queue and are answered by a persistent
/// worker pool; when the queue is full SubmitAsync resolves immediately
/// with kRejected (reject-with-status backpressure — the caller sheds load,
/// the service never buffers unboundedly). Completed results are cached in
/// a sharded LRU keyed on (source, target, sequence, k, method) and tagged
/// with the snapshot version they were computed against.
///
/// Concurrency contract (machine-checked where lockable; DESIGN.md,
/// "Concurrency contract"): queries never take a lock on the engine.
/// Each worker pins an epoch slot, resolves the current immutable
/// EngineSnapshot, and runs the whole query — including cache lookup and
/// insert — against that frozen state; updates run concurrently against
/// the engine's private copy-on-write master and go live in one atomic
/// pointer swap. publish_mutex_ serializes writers only; readers are
/// annotation-free by construction because everything they touch is
/// immutable. The version-tagged cache closes the stale-insert race the
/// old exclusive lock used to close: an update opens an invalidation round
/// before scrubbing, so a result computed against a pre-update snapshot
/// can never be inserted afterwards.
class KosrService {
 public:
  /// Takes ownership of a built engine (BuildIndexes()/LoadIndexes() must
  /// already have run unless every query uses NnMode::kDijkstra).
  /// `durability` (optional) attaches a recovered write-ahead journal;
  /// every accepted update is then journaled before it is applied, and
  /// checkpoints truncate the journal (see DESIGN.md, "Durability &
  /// recovery").
  explicit KosrService(KosrEngine engine, const ServiceConfig& config = {},
                       DurabilityAttachment durability = {});
  ~KosrService();

  KosrService(const KosrService&) = delete;
  KosrService& operator=(const KosrService&) = delete;

  /// Starts the worker pool and (with a positive batch window) the update
  /// flusher (no-op when already running). Start/Stop are serialized
  /// against each other by a lifecycle mutex, so concurrent calls (or Stop
  /// racing the destructor) are safe.
  void Start() KOSR_EXCLUDES(lifecycle_mutex_, queue_mutex_);
  /// Drains nothing from the queue: pending requests resolve with
  /// kShutdown, workers join. Buffered edge updates are flushed (applied,
  /// not dropped) after the flusher joins, and all retired snapshots are
  /// reclaimed. Idempotent; also run by the destructor.
  void Stop() KOSR_EXCLUDES(lifecycle_mutex_, queue_mutex_, publish_mutex_);

  /// Enqueues a request. The future resolves when a worker answers it (or
  /// immediately with kRejected / kShutdown).
  std::future<ServiceResponse> SubmitAsync(const ServiceRequest& request)
      KOSR_EXCLUDES(queue_mutex_);
  /// Callback flavour for transports that pipeline (the TCP front-end):
  /// `done` is invoked exactly once — from a worker thread on completion,
  /// inline from this call on reject, or from Stop() with kShutdown for
  /// requests drained unanswered. The callback must be cheap and must not
  /// block (it runs on the answering worker's thread) and must not call
  /// back into Start/Stop.
  void SubmitAsync(const ServiceRequest& request,
                   std::function<void(ServiceResponse)> done)
      KOSR_EXCLUDES(queue_mutex_);
  /// Blocking convenience wrapper.
  ServiceResponse Submit(const ServiceRequest& request)
      KOSR_EXCLUDES(queue_mutex_);

  // --- Dynamic updates -----------------------------------------------------
  // Mirror KosrEngine's update entry points. Out-of-range vertices and
  // categories throw std::invalid_argument (the service fronts untrusted
  // input, so it must range-check). Edge updates buffer when a batch
  // window is configured; category updates always flush pending edge
  // updates first (preserving submission order) and apply synchronously.

  UpdateAck AddVertexCategory(VertexId v, CategoryId c)
      KOSR_EXCLUDES(publish_mutex_);
  UpdateAck RemoveVertexCategory(VertexId v, CategoryId c)
      KOSR_EXCLUDES(publish_mutex_);
  /// ADD_EDGE verb: insert u->v or decrease its weight (never increases).
  UpdateAck AddOrDecreaseEdge(VertexId u, VertexId v, Weight w)
      KOSR_EXCLUDES(publish_mutex_);
  /// SET_EDGE verb: set the u->v weight exactly (increase or decrease),
  /// with incremental label repair either way.
  UpdateAck SetEdgeWeight(VertexId u, VertexId v, Weight w)
      KOSR_EXCLUDES(publish_mutex_);
  /// REMOVE_EDGE verb: delete the u->v arc with incremental label repair.
  UpdateAck RemoveEdge(VertexId u, VertexId v) KOSR_EXCLUDES(publish_mutex_);
  /// Applies every buffered edge update now (one repair, one snapshot)
  /// without waiting for the window. The returned summary covers the
  /// flushed batch; a no-op when nothing is buffered.
  UpdateAck FlushUpdates() KOSR_EXCLUDES(publish_mutex_);

  // --- Durability ----------------------------------------------------------

  /// Whether a journal is attached (the CHECKPOINT verb requires one).
  bool durable() const { return journal_ != nullptr; }
  /// Flushes buffered updates, writes a checkpoint covering every applied
  /// update, and truncates the journal behind it. Skipped (written =
  /// false) when the newest checkpoint is already current. Throws
  /// std::logic_error without a journal, std::runtime_error on I/O
  /// failure (the previous checkpoint and the journal survive).
  CheckpointAck Checkpoint() KOSR_EXCLUDES(publish_mutex_);

  // --- Introspection -------------------------------------------------------

  /// Snapshot of the metrics registry plus the live queue-depth,
  /// in-flight, and snapshot-publication gauges. Runs a reclaim pass first
  /// so the live-snapshot gauge converges even without reader traffic.
  MetricsSnapshot Metrics() const KOSR_EXCLUDES(queue_mutex_);
  std::string MetricsJson() const KOSR_EXCLUDES(queue_mutex_) {
    return Metrics().ToJson();
  }
  /// Lets the protocol layer fold a response-serialization span into the
  /// per-stage histograms (the span ends after the worker has already
  /// finished the request, so the worker cannot record it itself). No-op
  /// when observability is off.
  void RecordSerializeSpan(double seconds) {
    if (obs::Enabled()) {
      metrics_.RecordStage(obs::Stage::kSerialize, seconds);
    }
  }
  /// Clears counters/histograms (not the cache) — phase boundaries in the
  /// throughput bench.
  void ResetMetrics() { metrics_.Reset(); }

  /// Lets a network front-end surface its per-connection gauges through
  /// Metrics()/METRICS JSON (sampled at snapshot time). Pass nullptr to
  /// detach — the front-end must detach before it is destroyed. The
  /// provider must be thread-safe and non-blocking (it typically reads a
  /// handful of atomics).
  void AttachNetGauges(std::function<NetGauges()> provider)
      KOSR_EXCLUDES(net_gauges_mutex_);

  /// The result cache is internally synchronized (per-shard locks), so a
  /// reference to it is safe to hand out; the engine master copy is guarded
  /// by publish_mutex_ and deliberately has no accessor — read through a
  /// pinned snapshot (queries) or the lock-free gauges below.
  const ShardedResultCache& cache() const { return cache_; }
  /// Category universe size off the current snapshot — lock-free (guest
  /// epoch pin), never blocks behind an in-flight update.
  uint32_t num_categories() const;
  /// Version of the currently published snapshot.
  uint64_t snapshot_version() const { return domain_.version(); }
  /// Shared ownership of the current snapshot for out-of-band inspection
  /// (the byte-identity tests serialize its labeling). Can wait behind a
  /// publisher — not for the query path, which pins instead.
  std::shared_ptr<const EngineSnapshot> CurrentSnapshot() const {
    return domain_.SharedCurrent();
  }
  size_t queue_depth() const KOSR_EXCLUDES(queue_mutex_);
  uint32_t num_workers() const { return num_workers_; }

 private:
  struct Pending {
    ServiceRequest request;
    /// Completion continuation: resolves a promise (future flavour) or
    /// hands the response to the TCP session (callback flavour).
    std::function<void(ServiceResponse)> done;
    WallTimer queued;  ///< Started at enqueue; read at completion.
  };

  void WorkerLoop(uint32_t slot) KOSR_EXCLUDES(queue_mutex_);
  /// Flusher thread (only with a positive batch window): waits for the
  /// first buffered update, lets the window close, then applies the batch.
  void FlusherLoop() KOSR_EXCLUDES(batch_mutex_, publish_mutex_);
  /// `ctx` is the calling worker's private reusable query scratch;
  /// `slot` its epoch slot. `sample_stages` turns on the engine's
  /// per-phase timers for this query. Lock-free: runs entirely against
  /// the snapshot pinned on `slot`.
  ServiceResponse Process(const ServiceRequest& request, QueryContext& ctx,
                          bool sample_stages, uint32_t slot);
  /// Routes one edge update: buffers it (positive window) or applies it as
  /// a batch of one (window zero).
  UpdateAck SubmitEdgeUpdate(const EdgeUpdate& update)
      KOSR_EXCLUDES(publish_mutex_);
  /// Swaps out the buffered batch and applies it. Also the tail of every
  /// synchronous category update, which flushes to preserve order.
  UpdateAck FlushLocked() KOSR_REQUIRES(publish_mutex_)
      KOSR_EXCLUDES(batch_mutex_);
  /// Applies `batch` to the master engine, invalidates exactly the cache
  /// entries the repair delta can stale, and publishes a new snapshot when
  /// the graph changed. `batch_last_seq` is the journal sequence of the
  /// batch's last record (0 without a journal); with a kAlways journal one
  /// fsync covering the whole batch happens before the engine mutates.
  UpdateAck ApplyBatchLocked(std::span<const EdgeUpdate> batch,
                             uint64_t batch_last_seq)
      KOSR_REQUIRES(publish_mutex_);
  /// Checkpoint body: flush, skip if current, write, truncate journal.
  CheckpointAck CheckpointLocked() KOSR_REQUIRES(publish_mutex_)
      KOSR_EXCLUDES(batch_mutex_);
  /// Runs CheckpointLocked when the journal outgrew checkpoint_bytes_.
  void MaybeCheckpointLocked() KOSR_REQUIRES(publish_mutex_)
      KOSR_EXCLUDES(batch_mutex_);
  /// Builds the targeted invalidation filter for a repair delta: the
  /// changed-label vertex sets plus every category with a changed member.
  EdgeInvalidationFilter FilterFor(const EdgeUpdateSummary& summary) const
      KOSR_REQUIRES(publish_mutex_);
  static bool Cacheable(const ServiceRequest& request);
  static CacheKey KeyFor(const ServiceRequest& request);

  // Lock hierarchy: lifecycle_mutex_ -> queue_mutex_ (Start/Stop), and
  // publish_mutex_ -> batch_mutex_ -> journal internal mutex (update and
  // flush paths; the journal's mutex is a strict leaf). No method ever
  // holds a mutex from both families at once; queries hold none at all.

  /// Serializes writers: updates mutate the copy-on-write master engine,
  /// invalidate the cache, and publish, all under this mutex. Never taken
  /// on the query path.
  mutable Mutex publish_mutex_;
  /// Master copy-on-write engine state; snapshots are sealed from it.
  KosrEngine engine_ KOSR_GUARDED_BY(publish_mutex_);
  /// Next snapshot version to assign (version 1 = the initial seal).
  uint64_t next_version_ KOSR_GUARDED_BY(publish_mutex_) = 1;

  ShardedResultCache cache_;    // internally synchronized (per-shard locks)
  MetricsRegistry metrics_;     // internally synchronized

  uint32_t num_workers_;            // const after construction
  size_t queue_capacity_;           // const after construction
  double default_time_budget_s_;    // const after construction
  double slow_query_threshold_s_;   // const after construction
  uint32_t stage_sample_every_;     // const after construction
  double update_batch_window_s_;    // const after construction
  uint32_t num_vertices_;           // const after construction
  /// Epoch-based snapshot publication/reclamation; internally
  /// synchronized. Mutable so const introspection (Metrics, category
  /// reads) can pin and reclaim.
  mutable SnapshotDomain domain_;

  // --- Durability state (ISSUE 9) -----------------------------------------
  // The journal is internally synchronized (its own leaf mutex, below
  // every service lock). Buffered edge updates journal under batch_mutex_
  // so the append and the buffer push are atomic with respect to a flush;
  // everything else journals under publish_mutex_.

  /// Null when durability is off — every journal touch is gated on this.
  std::unique_ptr<durability::UpdateJournal> journal_;
  std::string journal_dir_;    // const after construction
  uint64_t checkpoint_bytes_;  // const after construction
  /// Last journal sequence applied to engine_ (what a checkpoint covers).
  uint64_t applied_seq_ KOSR_GUARDED_BY(publish_mutex_) = 0;
  /// Last sequence covered by the on-disk checkpoint, if one exists.
  uint64_t checkpoint_seq_ KOSR_GUARDED_BY(publish_mutex_) = 0;
  bool checkpoint_exists_ KOSR_GUARDED_BY(publish_mutex_) = false;
  /// Mirrors for the lock-free METRICS gauges.
  std::atomic<uint64_t> applied_seq_hint_{0};
  std::atomic<uint64_t> checkpoint_seq_hint_{0};
  std::atomic<uint64_t> checkpoints_written_{0};
  uint64_t replayed_records_;  // const after construction (recovery stat)
  double recovery_s_;          // const after construction (recovery stat)

  /// Guards the edge-update batch buffer.
  Mutex batch_mutex_;
  CondVar batch_cv_;
  std::vector<EdgeUpdate> pending_updates_ KOSR_GUARDED_BY(batch_mutex_);
  /// Journal sequence of the newest buffered update (passed to
  /// ApplyBatchLocked by the flush that drains it).
  uint64_t pending_last_seq_ KOSR_GUARDED_BY(batch_mutex_) = 0;
  bool batch_stopping_ KOSR_GUARDED_BY(batch_mutex_) = false;
  /// Monotonic update counters (gauges; pending = enqueued - applied).
  std::atomic<uint64_t> updates_enqueued_{0};
  std::atomic<uint64_t> updates_applied_{0};
  std::atomic<uint64_t> batches_applied_{0};

  /// Requests currently inside Process (between dequeue and completion).
  std::atomic<uint32_t> in_flight_{0};
  /// Guards the request queue and the stopping flag workers wait on.
  mutable Mutex queue_mutex_;
  CondVar queue_cv_;
  std::deque<Pending> queue_ KOSR_GUARDED_BY(queue_mutex_);
  bool stopping_ KOSR_GUARDED_BY(queue_mutex_) = false;
  /// Guards the optional network-gauge provider (attached by the TCP
  /// front-end, sampled by Metrics). Leaf mutex: the provider only reads
  /// the server's atomic counters.
  mutable Mutex net_gauges_mutex_;
  std::function<NetGauges()> net_gauges_provider_
      KOSR_GUARDED_BY(net_gauges_mutex_);

  /// Serializes Start/Stop (which mutate and join the threads); never
  /// taken by the workers themselves.
  Mutex lifecycle_mutex_;
  std::vector<std::thread> workers_ KOSR_GUARDED_BY(lifecycle_mutex_);
  std::thread flusher_ KOSR_GUARDED_BY(lifecycle_mutex_);
};

}  // namespace kosr::service

#endif  // KOSR_SERVICE_SERVICE_H_
