// `servebench trace`: the traced run. Replays a workload's operation stream
// in-process and single-threaded through the layers' public entry points,
// recording a span around every call and reading the engine's counters
// (obs::TlsCounters, QueryStats) before and after it.
//
//   query:  net.decode -> service.parse -> service.cache_lookup ->
//           core.query (children nn.search / algo.enumerate from the
//           query's phase timers) -> service.cache_insert -> service.format
//           -> net.encode
//   update: net.decode -> service.parse -> durability.append_sync ->
//           core.apply -> service.invalidate -> core.seal -> service.format
//           -> net.encode
//
// It also times the set-up (graph.load, labeling.build, nn.inverted_build),
// a labeling copy, every CHECKPOINT in the stream and a final recovery over
// the run's journal directory. A layer's self time is its spans' duration
// minus what their child spans cover. Spans stay in memory and are written
// out at exit. End-to-end numbers never come from this run.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>

#include "servebench/spec.h"
#include "src/durability/checkpoint.h"
#include "src/durability/journal.h"
#include "src/durability/recovery.h"
#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "src/net/frame.h"
#include "src/nn/inverted_label_index.h"
#include "src/obs/counters.h"
#include "src/service/protocol.h"
#include "src/service/result_cache.h"
#include "src/service/service.h"

namespace servebench {
namespace {

using kosr::obs::Counter;
using kosr::service::ShardedResultCache;

struct Span {
  const char* name;  // "<layer>.<call>", or "request" for a request's root
  int64_t start;
  int64_t end;
  int32_t parent;  // index of the parent span, -1 for none
  uint64_t request;  // 0 outside requests
};

class Tracer {
 public:
  int32_t Begin(const char* name, int32_t parent, uint64_t request) {
    spans_.push_back({name, NowNs(), 0, parent, request});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  /// Ends span `id`; returns its duration in seconds.
  double End(int32_t id) {
    spans_[id].end = NowNs();
    return (spans_[id].end - spans_[id].start) * 1e-9;
  }
  void Add(const Span& span) { spans_.push_back(span); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Runs `fn` inside span `name`; returns its duration (s). With no tracer
/// it only runs `fn` (the untraced baseline) and returns 0.
template <typename Fn>
double Timed(Tracer* tracer, const char* name, int32_t parent,
             uint64_t request, Fn&& fn) {
  if (tracer == nullptr) {
    fn();
    return 0;
  }
  const int32_t id = tracer->Begin(name, parent, request);
  fn();
  return tracer->End(id);
}

double ResidentMb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return Percentile(v, 50);
}

double PerItem(double total, size_t items) {
  return items == 0 ? 0 : total / static_cast<double>(items);
}

uint64_t CounterDelta(const kosr::obs::EngineCounters& before, Counter c) {
  return kosr::obs::TlsCounters().Get(c) - before.Get(c);
}

kosr::service::CacheKey KeyFor(const kosr::service::ServiceRequest& request) {
  kosr::service::CacheKey key;
  key.source = request.query.source;
  key.target = request.query.target;
  key.sequence = request.query.sequence;
  key.k = request.query.k;
  key.algorithm = request.options.algorithm;
  key.nn_mode = request.options.nn_mode;
  return key;
}

/// The service's invalidation filter for a repair delta: changed-label
/// vertices plus every category with a changed member. A copy of the private
/// KosrService::FilterFor (src/service/service.cc); keep the two in step.
kosr::service::EdgeInvalidationFilter FilterFor(
    const kosr::EdgeUpdateSummary& summary, const kosr::CategoryTable& cats) {
  kosr::service::EdgeInvalidationFilter filter;
  filter.changed_out.assign(cats.num_vertices(), false);
  filter.changed_in.assign(cats.num_vertices(), false);
  filter.affected_categories.assign(cats.num_categories(), false);
  auto mark = [&](const std::vector<kosr::VertexId>& vertices,
                  std::vector<bool>& flags) {
    for (kosr::VertexId v : vertices) {
      flags[v] = true;
      for (kosr::CategoryId c : cats.CategoriesOf(v)) {
        filter.affected_categories[c] = true;
      }
    }
  };
  mark(summary.changed_out_vertices, filter.changed_out);
  mark(summary.changed_in_vertices, filter.changed_in);
  return filter;
}

/// FormatQueryResponse takes a service (it records the serialize stage
/// there); the trace hands it an idle one over the paper's Figure 1.
std::unique_ptr<kosr::service::KosrService> MakeFormatService() {
  kosr::Figure1 fig = kosr::MakeFigure1();
  kosr::KosrEngine engine(std::move(fig.graph), std::move(fig.categories));
  engine.BuildIndexes();
  kosr::service::ServiceConfig config;
  config.num_workers = 1;
  config.start_workers = false;
  config.cache_capacity = 0;
  return std::make_unique<kosr::service::KosrService>(std::move(engine), config);
}

/// Engine work a query or update stream did, from counters and QueryStats.
struct Tally {
  std::vector<double> query_ms, parse_us, format_us, decode_us, encode_us;
  std::vector<double> apply_ms, seal_ms, append_sync_ms, checkpoint_s;
  double nn_s = 0, engine_s = 0;
  uint64_t scanned = 0, pops = 0, nn_queries = 0, examined = 0, dominated = 0;
  uint64_t tightness = 0, researches = 0, invalidated = 0;
  size_t edge_updates = 0, updates = 0;
};

/// What one replayed request runs against.
struct Replay {
  std::shared_ptr<const kosr::EngineSnapshot> snapshot;
  uint64_t version = 1;
  ShardedResultCache* cache = nullptr;
  kosr::QueryContext* ctx = nullptr;
  kosr::service::KosrService* format_service = nullptr;
};

/// decode: the request frame as the server's read path sees it.
kosr::net::ParsedFrame Decode(Tracer* tracer, int32_t root, uint64_t request,
                              const std::string& line, Tally& tally) {
  std::string wire;
  kosr::net::AppendFrame(wire, request, kosr::net::kVerbLine, line);
  kosr::net::ParsedFrame frame;
  tally.decode_us.push_back(1e6 * Timed(tracer, "net.decode", root, request, [&] {
    kosr::net::FrameBuffer in;
    in.Append(wire.data(), wire.size());
    std::string error;
    in.Pop(&frame, &error);
  }));
  return frame;
}

void Encode(Tracer* tracer, int32_t root, uint64_t request,
            const std::string& response, Tally& tally) {
  std::string out;
  tally.encode_us.push_back(1e6 * Timed(tracer, "net.encode", root, request, [&] {
    kosr::net::AppendFrame(out, request, kosr::net::kStatusOk, response);
  }));
}

/// One QUERY request down the server's path.
void RunQuery(Tracer* tracer, uint64_t request, const std::string& line,
              Replay& r, Tally& tally) {
  const int32_t root = tracer ? tracer->Begin("request", -1, request) : -1;
  const kosr::net::ParsedFrame frame = Decode(tracer, root, request, line, tally);
  kosr::service::ServiceRequest req;
  std::string error;
  tally.parse_us.push_back(1e6 * Timed(tracer, "service.parse", root, request, [&] {
    if (!kosr::service::ParseQueryLine(frame.payload, &req, &error)) {
      throw std::runtime_error("unparsable query: " + line);
    }
  }));
  const kosr::service::CacheKey key = KeyFor(req);
  kosr::service::ServiceResponse response;
  response.snapshot_version = r.version;
  Timed(tracer, "service.cache_lookup", root, request, [&] {
    if (auto hit = r.cache->Lookup(key, r.version)) {
      response.result = std::move(*hit);
      response.cache_hit = true;
    }
  });
  if (!response.cache_hit) {
    kosr::KosrOptions options = req.options;
    options.collect_phase_times = tracer != nullptr;
    const kosr::obs::EngineCounters before = kosr::obs::TlsCounters();
    const int32_t q = tracer ? tracer->Begin("core.query", root, request) : -1;
    response.result = r.snapshot->Query(req.query, options, r.ctx);
    if (tracer) {
      tally.query_ms.push_back(1e3 * tracer->End(q));
      const kosr::QueryStats& st = response.result.stats;
      const int64_t start = tracer->spans()[q].start;
      const auto nn_ns = static_cast<int64_t>(st.nn_time_s * 1e9);
      const auto engine_ns = static_cast<int64_t>(st.total_time_s * 1e9);
      tracer->Add({"nn.search", start, start + nn_ns, q, request});
      tracer->Add({"algo.enumerate", start + nn_ns, start + engine_ns, q, request});
      tally.nn_s += st.nn_time_s;
      tally.engine_s += st.total_time_s;
      tally.scanned += CounterDelta(before, Counter::kLabelEntriesScanned);
      tally.pops += CounterDelta(before, Counter::kNnCursorPops);
      tally.nn_queries += st.nn_queries;
      tally.examined += st.examined_routes;
      tally.dominated += st.dominated_routes;
    }
    Timed(tracer, "service.cache_insert", root, request,
          [&] { r.cache->Insert(key, response.result, r.version); });
  }
  std::string response_line;
  tally.format_us.push_back(1e6 * Timed(tracer, "service.format", root, request, [&] {
    response_line = kosr::service::FormatQueryResponse(*r.format_service, response);
  }));
  Encode(tracer, root, request, response_line, tally);
  if (tracer) tracer->End(root);
}

}  // namespace

int CmdTrace(const Flags& flags) {
  const EngineSpec spec = EngineSpec::FromFlags(flags);
  const std::string journal_dir = Required(flags, "journal-dir");
  Tracer tracer;
  JsonObject metrics;

  // --- Set-up: load, label build, inverted build, labeling copy ----------
  kosr::Graph graph;
  kosr::CategoryTable cats;
  metrics.Num("graph.load_s", Timed(&tracer, "graph.load", -1, 0, [&] {
    graph = kosr::LoadDimacsGraph(spec.graph_path);
    cats = kosr::LoadCategories(spec.cats_path, graph.num_vertices(),
                                spec.num_categories);
  }));
  {
    kosr::HubLabeling labeling;
    const double rss_before = ResidentMb();
    metrics.Num("labeling.build_s", Timed(&tracer, "labeling.build", -1, 0, [&] {
      if (spec.rows > 0) {
        labeling.Build(graph, kosr::GridDissectionOrder(spec.rows, spec.cols),
                       spec.threads);
      } else {
        labeling.Build(graph, spec.threads);
      }
    }));
    metrics.Num("labeling.resident_mb", ResidentMb() - rss_before);
    metrics.Num("nn.inverted_build_s", Timed(&tracer, "nn.inverted_build", -1, 0, [&] {
      for (kosr::CategoryId c = 0; c < cats.num_categories(); ++c) {
        kosr::InvertedLabelIndex::Build(labeling, cats.Members(c));
      }
    }));
    std::vector<double> clone_ms;
    for (int i = 0; i < 5; ++i) {
      clone_ms.push_back(1e3 * Timed(&tracer, "labeling.clone", -1, 0, [&] {
        kosr::HubLabeling copy(labeling);
      }));
    }
    metrics.Num("labeling.clone_ms", Median(clone_ms));
  }

  // --- Replay of the operation stream ------------------------------------
  kosr::KosrEngine engine(graph, cats);
  spec.BuildIndexes(engine);
  ShardedResultCache cache(1024, 8);
  kosr::QueryContext ctx;
  auto format_service = MakeFormatService();
  Replay replay;
  replay.snapshot = engine.SealSnapshot(replay.version);
  replay.cache = &cache;
  replay.ctx = &ctx;
  replay.format_service = format_service.get();
  std::filesystem::create_directories(journal_dir);
  auto journal = std::make_unique<kosr::durability::UpdateJournal>(
      journal_dir, kosr::durability::FsyncPolicy::kAlways, 0.05, 0);

  std::vector<PlanOp> ops;
  {
    std::stringstream list(Required(flags, "plans"));
    for (std::string path; std::getline(list, path, ',');) {
      for (PlanOp& op : ReadPlan(path).ops) {
        if (op.kind != 'P') ops.push_back(std::move(op));  // PING: loop only
      }
    }
  }
  Tally tally;
  std::vector<uint64_t> query_requests;
  uint64_t request = 0;
  for (const PlanOp& op : ops) {
    ++request;
    if (op.kind == 'Q') {
      query_requests.push_back(request);
      RunQuery(&tracer, request, op.line, replay, tally);
      continue;
    }
    const int32_t root = tracer.Begin("request", -1, request);
    const kosr::net::ParsedFrame frame = Decode(&tracer, root, request, op.line, tally);
    std::string response_line;
    if (op.kind == 'U') {
      ++tally.updates;
      std::string verb;
      uint32_t a = 0, b = 0, w = 0;
      tally.parse_us.push_back(1e6 * Timed(&tracer, "service.parse", root, request, [&] {
        std::istringstream ls(frame.payload);
        ls >> verb >> a >> b >> w;
      }));
      using Type = kosr::durability::JournalRecord::Type;
      kosr::durability::JournalRecord record;
      record.type = verb == "SET_EDGE"  ? Type::kSetEdge
                    : verb == "ADD_CAT" ? Type::kAddCategory
                                        : Type::kRemoveCategory;
      record.a = a;
      record.b = b;
      record.w = w;
      tally.append_sync_ms.push_back(
          1e3 * Timed(&tracer, "durability.append_sync", root, request, [&] {
            journal->Append(record);
            journal->Sync();
          }));
      kosr::EdgeUpdateSummary summary;
      const kosr::obs::EngineCounters before = kosr::obs::TlsCounters();
      tally.apply_ms.push_back(1e3 * Timed(&tracer, "core.apply", root, request, [&] {
        if (record.type == Type::kSetEdge) {
          const kosr::EdgeUpdate update{kosr::EdgeUpdate::Kind::kSet, a, b, w};
          summary = engine.ApplyEdgeUpdates({&update, 1});
        } else if (record.type == Type::kAddCategory) {
          engine.AddVertexCategory(a, b);
        } else {
          engine.RemoveVertexCategory(a, b);
        }
      }));
      bool publish = true;
      if (record.type == Type::kSetEdge) {
        ++tally.edge_updates;
        tally.tightness += CounterDelta(before, Counter::kRepairTightnessTests);
        tally.researches += CounterDelta(before, Counter::kRepairResearches);
        publish = summary.graph_changed;
      }
      if (publish) {
        const uint64_t version = ++replay.version;
        const uint64_t dropped_before = cache.stats().invalidations;
        Timed(&tracer, "service.invalidate", root, request, [&] {
          if (record.type != Type::kSetEdge) {
            cache.BeginInvalidation(version);
            cache.InvalidateCategory(b);
          } else if (summary.labels_changed) {
            cache.BeginInvalidation(version);
            cache.InvalidateEdgeDelta(FilterFor(summary, engine.categories()));
          }
        });
        tally.invalidated += cache.stats().invalidations - dropped_before;
        tally.seal_ms.push_back(1e3 * Timed(&tracer, "core.seal", root, request, [&] {
          replay.snapshot = engine.SealSnapshot(version);
        }));
      }
      tally.format_us.push_back(1e6 * Timed(&tracer, "service.format", root, request, [&] {
        response_line = "OK UPDATED version=" + std::to_string(replay.version);
      }));
    } else if (op.kind == 'C') {
      const uint64_t seq = journal->last_sequence();
      tally.checkpoint_s.push_back(
          Timed(&tracer, "durability.checkpoint", root, request,
                [&] { kosr::durability::WriteCheckpoint(journal_dir, engine, seq); }));
      journal->TruncateThrough(seq);
      response_line = "OK CHECKPOINT written=1 seq=" + std::to_string(seq);
    }
    Encode(&tracer, root, request, response_line, tally);
    tracer.End(root);
  }
  const uint64_t peak_witnesses =
      kosr::obs::TlsCounters().Get(Counter::kScratchPeakWitnesses);

  // --- Recovery over the run's journal directory ---------------------------
  journal.reset();
  kosr::durability::RecoveryStats recovery;
  const double recover_s = Timed(&tracer, "durability.recover", -1, 0, [&] {
    kosr::durability::RecoveryOptions options;
    options.dir = journal_dir;
    recovery = kosr::durability::Recover(options, [&] {
                 auto seed = std::make_unique<kosr::KosrEngine>(graph, cats);
                 spec.BuildIndexes(*seed);
                 return seed;
               }).stats;
  });

  // --- Tracing overhead: a query prefix untraced and traced, alternated ----
  constexpr size_t kOverheadQueries = 400;
  std::vector<const PlanOp*> prefix;
  for (const PlanOp& op : ops) {
    if (op.kind == 'Q' && prefix.size() < kOverheadQueries) prefix.push_back(&op);
  }
  double seconds[2] = {0, 0};  // [untraced, traced]
  for (int pass = 0; pass < 4; ++pass) {
    const int traced = pass % 2;
    ShardedResultCache fresh(1024, 8);
    Replay again = replay;
    again.cache = &fresh;
    Tracer scratch;
    Tally ignored;
    const int64_t start = NowNs();
    for (const PlanOp* op : prefix) {
      RunQuery(traced ? &scratch : nullptr, 1, op->line, again, ignored);
    }
    seconds[traced] += (NowNs() - start) * 1e-9;
  }

  // --- Self times per layer over the query requests ------------------------
  const std::vector<Span>& spans = tracer.spans();
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[s.parent] += s.end - s.start;
  }
  std::map<std::string, double> layer_self_ms;
  std::map<uint64_t, double> request_ms;
  const std::set<uint64_t> is_query(query_requests.begin(), query_requests.end());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string name = s.name;
    if (name == "request" || !is_query.count(s.request)) continue;
    const double self_ms = (s.end - s.start - child_ns[i]) * 1e-6;
    layer_self_ms[name.substr(0, name.find('.'))] += self_ms;
    request_ms[s.request] += self_ms;
  }
  std::vector<double> per_request;
  for (const auto& [id, ms] : request_ms) per_request.push_back(ms);

  std::sort(tally.query_ms.begin(), tally.query_ms.end());
  std::sort(tally.apply_ms.begin(), tally.apply_ms.end());
  const size_t executed = tally.query_ms.size();
  metrics.Num("labeling.entries_scanned_per_query", PerItem(tally.scanned, executed))
      .Num("labeling.tightness_tests_per_update", PerItem(tally.tightness, tally.edge_updates))
      .Num("labeling.researches_per_update", PerItem(tally.researches, tally.edge_updates))
      .Num("nn.cursor_pops_per_query", PerItem(tally.pops, executed))
      .Num("nn.nn_queries_per_query", PerItem(tally.nn_queries, executed))
      .Num("nn.time_share", tally.engine_s > 0 ? tally.nn_s / tally.engine_s : 0)
      .Num("algo.examined_per_query", PerItem(tally.examined, executed))
      .Num("algo.dominated_per_query", PerItem(tally.dominated, executed))
      .Num("algo.peak_witnesses", static_cast<double>(peak_witnesses))
      .Num("core.query_p50_ms", Percentile(tally.query_ms, 50))
      .Num("core.query_p99_ms", Percentile(tally.query_ms, 99))
      .Num("core.apply_update_p50_ms", Percentile(tally.apply_ms, 50))
      .Num("core.apply_update_p90_ms", Percentile(tally.apply_ms, 90))
      .Num("core.seal_ms", Median(tally.seal_ms))
      .Num("service.cache_hit_rate", cache.stats().HitRate())
      .Num("service.invalidated_per_update", PerItem(tally.invalidated, tally.updates))
      .Num("service.parse_us", Median(tally.parse_us))
      .Num("service.format_us", Median(tally.format_us))
      .Num("durability.append_sync_ms", Median(tally.append_sync_ms))
      .Num("durability.checkpoint_s", Median(tally.checkpoint_s))
      .Num("durability.recover_s", recover_s)
      .Num("durability.replayed_records", static_cast<double>(recovery.replayed_records))
      .Num("net.decode_us", Median(tally.decode_us))
      .Num("net.encode_us", Median(tally.encode_us))
      .Num("trace.overhead_frac", seconds[0] > 0 ? seconds[1] / seconds[0] - 1 : 0);

  JsonObject layers;
  for (const auto& [layer, total] : layer_self_ms) {
    layers.Num(layer, PerItem(total, per_request.size()));
  }
  std::ofstream(Required(flags, "out"))
      << JsonObject()
             .Raw("metrics", metrics.Text())
             .Raw("query_self_ms_per_request", layers.Text())
             .Num("query_requests", static_cast<double>(per_request.size()))
             .Num("traced_request_p50_ms", Median(per_request))
             .Num("executed_queries", static_cast<double>(executed))
             .Num("updates", static_cast<double>(tally.updates))
             .Text()
      << "\n";

  std::ofstream span_file(Required(flags, "spans-out"));
  span_file << "name,start_ns,end_ns,parent,request\n";
  for (const Span& s : spans) {
    span_file << s.name << "," << s.start << "," << s.end << "," << s.parent
              << "," << s.request << "\n";
  }
  return 0;
}

}  // namespace servebench
