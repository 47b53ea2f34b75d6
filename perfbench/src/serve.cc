// The served workloads. The program under test — graph registry, query
// service (2 workers) and epoll TCP front-end (1 thread) — is hosted in
// this process; one load-generator thread drives it over loopback TCP.
//
// serve-warm: two closed-loop connections over seed-set keys that all fit
//   the default cache and are warmed during set-up, so the window measures
//   warm Block re-derivation plus Restore, queueing and the wire — no pool
//   is built. This is where restore and executor work shows.
// serve-churn: one closed-loop reader over a Zipf order of keys under a
//   cache budget that holds only some of them, each SOLVE followed by an
//   EVAL of its answer, beside an open-loop writer sending one UPDATE every
//   kUpdatePeriodSeconds. With one reader and two workers, the reader never
//   queues behind an UPDATE's migration; with two readers it did, which
//   multiplied the host's noise in solve_ms and eval_ms. Evictions, cold builds under pressure, epoch
//   migration and Monte-Carlo evaluation all run here; a warm-path gain
//   that bloats entries or costs migrations or rebuilds shows up here.
//
// Key counts, cache budget and Zipf exponent are the constants below each
// workload's heading (README.md explains the choices).

#include <algorithm>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "bench.h"
#include "client.h"
#include "gen/dataset_catalog.h"
#include "inputs.h"
#include "net/tcp_server.h"
#include "prob/probability_models.h"
#include "ruler.h"
#include "service/protocol.h"

namespace perfbench {
namespace {

using vblock::VertexId;

constexpr int kSetups = 5;
constexpr uint32_t kSeedsPerKey = 5;
constexpr size_t kReplayQueries = 4;
constexpr double kTimeoutSeconds = 60;
const std::string kGraph = "g";

// Registry, service and TCP front-end of the program under test, with the
// front-end's event loop on its own thread.
class HostedServer {
 public:
  explicit HostedServer(const vblock::ServiceOptions& options)
      : service_(&registry_, options), tcp_(&registry_, &service_) {}
  ~HostedServer() {
    if (loop_.joinable()) {
      tcp_.RequestDrain();
      loop_.join();
    }
  }
  HostedServer(const HostedServer&) = delete;
  HostedServer& operator=(const HostedServer&) = delete;

  vblock::Status Start() {
    vblock::Status s = tcp_.Start();
    if (s.ok()) loop_ = std::thread([this] { tcp_.Run(); });
    return s;
  }
  uint16_t port() const { return tcp_.port(); }
  vblock::GraphRegistry& registry() { return registry_; }
  vblock::QueryService& service() { return service_; }

 private:
  vblock::GraphRegistry registry_;
  vblock::QueryService service_;
  vblock::TcpServer tcp_;
  std::thread loop_;
};

double MsSince(int64_t t0_ns, int64_t t1_ns) {
  return static_cast<double>(t1_ns - t0_ns) / 1e6;
}

// The host probe runs on the load generator's thread, on the wall clock,
// only while no request is in flight, so the program's own threads do not
// compete with it: kProbesPerSetup times after each set-up, and in the
// window about every kProbeEvery seconds, once the requests in flight have
// been answered.
constexpr int kProbesPerSetup = 2;
constexpr double kProbeEvery = 0.5;
void ProbeHost(SpeedProbe* probe, int times) {
  for (int i = 0; i < times; ++i) probe->Run(NowNs);
}

// When the next in-window probe is due.
class ProbeClock {
 public:
  explicit ProbeClock(int64_t start_ns) : next_ns_(start_ns) {}
  bool due() const { return NowNs() >= next_ns_; }
  void Run(SpeedProbe* probe) {
    probe->Run(NowNs);
    next_ns_ = NowNs() + static_cast<int64_t>(kProbeEvery * 1e9);
  }

 private:
  int64_t next_ns_;
};

// One answered request of a closed loop.
struct Exchange {
  size_t conn;
  const std::string& sent;
  const std::string& reply;
  int64_t sent_ns;
  int64_t received_ns;
  double ms() const { return MsSince(sent_ns, received_ns); }
};

// Drives every connection through its own request sequence, one request
// outstanding per connection. `next(conn)` gives the connection's next line
// (nullopt when it is done); `on_reply` takes each answer. With `probe`,
// once the probe is due, each connection holds its next request until none
// is in flight; the probe then runs and they all resume. False (with the
// reason in mux.error()) on a timeout or a dropped connection.
bool ClosedLoop(Mux& mux,
                const std::function<std::optional<std::string>(size_t)>& next,
                const std::function<void(const Exchange&)>& on_reply,
                std::pair<ProbeClock*, SpeedProbe*> probe = {}) {
  std::vector<std::string> sent(mux.size());
  std::vector<int64_t> sent_ns(mux.size());
  std::vector<size_t> held;
  size_t busy = 0;
  auto send_next = [&](size_t c) {
    std::optional<std::string> line = next(c);
    if (!line) return true;
    sent[c] = std::move(*line);
    sent_ns[c] = NowNs();
    ++busy;
    return mux.Send(c, sent[c]);
  };
  for (size_t c = 0; c < mux.size(); ++c) {
    if (!send_next(c)) return false;
  }
  while (busy > 0) {
    std::optional<Reply> r =
        mux.Next(NowNs() + static_cast<int64_t>(kTimeoutSeconds * 1e9));
    if (!r) return false;
    --busy;
    on_reply({r->conn, sent[r->conn], r->line, sent_ns[r->conn], r->received_ns});
    if (probe.first && probe.first->due()) {
      held.push_back(r->conn);
      if (busy > 0) continue;
      probe.first->Run(probe.second);
      for (size_t c : held) {
        if (!send_next(c)) return false;
      }
      held.clear();
      continue;
    }
    if (!send_next(r->conn)) return false;
  }
  return true;
}

std::string LoadLine(const char* dataset, double scale, uint64_t seed,
                     const char* model) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "LOAD %s GEN %s SCALE %g SEED %llu MODEL %s",
                kGraph.c_str(), dataset, scale,
                static_cast<unsigned long long>(seed), model);
  return buf;
}

std::string SolveLine(const std::vector<VertexId>& seeds, uint32_t budget,
                      bool gr, uint32_t theta) {
  return "SOLVE " + kGraph + " SEEDS " + JoinIds(seeds) + " BUDGET " +
         std::to_string(budget) + " ALG " + (gr ? "gr" : "ag") + " THETA " +
         std::to_string(theta) + " REUSE prune";
}

// Appended to the SOLVEs of traced slices: the reply then carries the
// request's trace id and the solver's own time (solve_ms=).
const std::string kTraceKnob = " TRACE 1";

// `line` without the trace knob, as the workload's bookkeeping keys it.
std::string Untraced(const std::string& line) {
  const size_t k = kTraceKnob.size();
  if (line.size() >= k && line.compare(line.size() - k, k, kTraceKnob) == 0) {
    return line.substr(0, line.size() - k);
  }
  return line;
}

std::string EvalLine(const std::vector<VertexId>& seeds,
                     const std::vector<VertexId>& blockers) {
  return "EVAL " + kGraph + " SEEDS " + JoinIds(seeds) + " BLOCKERS " +
         JoinIds(blockers) + " ROUNDS " + std::to_string(kEvalRounds);
}

// One distinct SOLVE seen in the window.
struct Distinct : Answer {
  size_t owner = 0;  // connection that sends it
};

std::vector<Answer> AnswersOf(const std::map<std::string, Distinct>& distinct) {
  std::vector<Answer> out;
  for (const auto& [line, d] : distinct) out.push_back(d);
  return out;
}

// Splits each traced SOLVE's round trip into the service's part and the
// rest, under the window's own load. The reply of a traced SOLVE gives its
// trace id and the solver's time; the service's slow-query log, routed here
// with a 1 ms threshold in traced runs, gives the same request's time from
// Submit to its callback (0.1 ms resolution), queue wait included.
class ServiceTimes {
 public:
  void Install(vblock::ServiceOptions* options) {
    options->slow_query_ms = 1;
    options->slow_log = [this](const std::string& line) { Logged(line); };
  }

  // One traced SOLVE's reply, with when it was sent and answered: a
  // net.roundtrip span with the service's service.request span inside it.
  void Attribute(const std::string& reply, int64_t sent_ns, int64_t received_ns,
                 SpanLog* log) {
    const uint64_t id = std::stoull(Field(reply, "trace_id").value_or("0"));
    std::optional<Entry> entry;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (auto it = logged_.find(id); it != logged_.end()) {
        entry = it->second;
        logged_.erase(it);
      }
    }
    const int32_t roundtrip = log->Add("net.roundtrip", sent_ns, received_ns, id);
    if (id == 0 || !entry) {
      ++unmatched_;
      return;
    }
    const double solve_ms = std::atof(Field(reply, "solve_ms").value_or("0").c_str());
    log->Add("service.request", entry->end_ns - static_cast<int64_t>(entry->ms * 1e6),
             entry->end_ns, id, roundtrip);
    request_ms_.push_back(entry->ms);
    outside_ms_.push_back(entry->ms - solve_ms);
    wire_ms_.push_back(MsSince(sent_ns, received_ns) - entry->ms);
  }

  void AddLayers(LayerValues* v) const {
    auto median = [](const std::vector<double>& x) { return x.empty() ? 0 : Median(x); };
    (*v)["service.request_ms"] = median(request_ms_);
    (*v)["service.outside_solver_ms"] = median(outside_ms_);
    (*v)["net.wire_ms"] = median(wire_ms_);
    std::printf("service times: %zu traced SOLVEs split, %llu without a logged time\n",
                request_ms_.size(), static_cast<unsigned long long>(unmatched_));
  }

 private:
  struct Entry {
    int64_t end_ns;  // when the service logged it, just before the callback
    double ms;       // Submit to that point
  };

  void Logged(const std::string& line) {
    const int64_t now = NowNs();
    const uint64_t id = std::stoull(Field(line, "trace_id").value_or("0"));
    if (id == 0) return;  // an untraced request
    const double ms = std::atof(Field(line, "ms").value_or("0").c_str());
    std::lock_guard<std::mutex> lock(mu_);
    logged_[id] = {now, ms};
  }

  std::mutex mu_;
  std::map<uint64_t, Entry> logged_;
  std::vector<double> request_ms_, outside_ms_, wire_ms_;
  uint64_t unmatched_ = 0;
};

// Checks a SOLVE reply and records its answer under its line. `strict`
// (for a graph that does not change meanwhile) also requires the exact
// answer size and that the answer repeats any earlier one to the same line.
// Returns the blockers.
std::optional<std::vector<VertexId>> CheckSolve(
    const std::string& line, const std::string& reply, const vblock::Graph& g,
    std::map<std::string, Distinct>* distinct, size_t conn, Report* report,
    bool strict) {
  vblock::Result<vblock::Command> cmd = vblock::ParseCommand(line);
  const vblock::IminQuery& q = cmd->request.query;
  std::optional<std::vector<VertexId>> b = ParseBlockers(reply);
  const int64_t expected =
      !strict ? -1
      : q.algorithm == vblock::Algorithm::kAdvancedGreedy
          ? q.budget
          : std::min<int64_t>(q.budget, NonSeedOutNeighbors(g, q.seeds));
  if (!b || !ValidAnswer(*b, q.seeds, q.budget, g.NumVertices(), expected)) {
    report->Fail("bad SOLVE reply '" + reply + "' to '" + line + "'");
    return std::nullopt;
  }
  auto [it, fresh] = distinct->try_emplace(line);
  if (fresh || !strict) {
    it->second.query = q;
    it->second.owner = conn;
    it->second.blockers = *b;
  } else if (it->second.blockers != *b) {
    report->Fail("'" + line + "' answered differently within one epoch");
    return std::nullopt;
  }
  return b;
}

bool ParseSpread(const std::string& reply, double lo, double hi) {
  std::optional<std::string> s = Field(reply, "spread");
  if (reply.rfind("OK ", 0) != 0 || !s) return false;
  const double v = std::atof(s->c_str());
  return v >= lo && v <= hi;
}

// A running served workload: the hosted program and the client connections.
struct Served {
  std::unique_ptr<HostedServer> server;
  std::unique_ptr<Mux> mux;
  vblock::GraphRegistry::SnapshotPtr graph;
};

// Starts the server, connects `conns` clients and LOADs the graph. Empty
// `server` on failure (already reported).
Served StartServed(const vblock::ServiceOptions& options, size_t conns,
                   const std::string& load_line, Report* report) {
  Served s;
  s.server = std::make_unique<HostedServer>(options);
  if (vblock::Status st = s.server->Start(); !st.ok()) {
    report->Fail("server start: " + st.ToString());
    s.server.reset();
    return s;
  }
  s.mux = std::make_unique<Mux>();
  for (size_t i = 0; i < conns; ++i) {
    if (auto c = s.mux->Connect(s.server->port()); !c.ok()) {
      report->Fail("connect: " + c.status().ToString());
      s.server.reset();
      return s;
    }
  }
  ++report->attempted;
  std::optional<std::string> r = s.mux->Roundtrip(0, load_line);
  if (!r || r->rfind("OK ", 0) != 0) {
    report->Fail("LOAD: " + (r ? *r : s.mux->error()));
    s.server.reset();
    return s;
  }
  s.graph = *s.server->registry().Get(kGraph);
  return s;
}

struct StatsDelta {
  vblock::ServiceStats before;
  void Begin(vblock::QueryService& service) { before = service.Stats(); }
  // Window counters as per-layer values.
  void End(vblock::QueryService& service, LayerValues* v) const {
    const vblock::ServiceStats after = service.Stats();
    const uint64_t hits = after.cache.hits - before.cache.hits;
    const uint64_t misses = after.cache.misses - before.cache.misses;
    (*v)["core.build_calls"] = static_cast<double>(misses);
    (*v)["service.pool_hit_ratio"] =
        hits + misses ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                      : 0;
    (*v)["service.evictions"] =
        static_cast<double>(after.cache.evictions - before.cache.evictions);
    (*v)["service.bytes_per_entry"] =
        after.cache.entries ? static_cast<double>(after.cache.bytes_in_use) /
                                  static_cast<double>(after.cache.entries)
                            : 0;
    (*v)["service.coalesced"] = static_cast<double>(after.coalesced - before.coalesced);
    (*v)["service.rejected"] = static_cast<double>(after.rejected - before.rejected);
    const uint64_t lines = after.net_lines - before.net_lines;
    (*v)["net.bytes_per_request"] =
        lines ? static_cast<double>(after.net_bytes_in - before.net_bytes_in +
                                    after.net_bytes_out - before.net_bytes_out) /
                    static_cast<double>(lines)
              : 0;
  }
};

// The benchmark's own generation of the served graph (the server generates
// its copy inside LOAD), timed for gen.dataset_ms and graph.grouped_view_ms.
void TimeGeneration(const char* dataset, double scale, uint64_t gen_seed,
                    bool trivalency, SpanLog* log, LayerValues* v) {
  const vblock::DatasetSpec* spec = vblock::FindDataset(dataset);
  for (int i = 0; i < kSetups; ++i) {
    vblock::Graph g;
    {
      ScopedSpan span(log, "gen.MakeDataset");
      g = vblock::MakeDataset(*spec, scale, gen_seed);
      g = trivalency ? vblock::WithTrivalency(g, gen_seed)
                     : vblock::WithWeightedCascade(g);
    }
    ScopedSpan span(log, "graph.GroupedView");
    g.GroupedView();
  }
  (*v)["gen.dataset_ms"] = Median(log->Durations("gen.MakeDataset"));
  (*v)["graph.grouped_view_ms"] = Median(log->Durations("graph.GroupedView"));
}

// The first few distinct SOLVEs of the traced slices.
std::vector<vblock::IminQuery> ReplayQueries(const std::set<std::string>& traced) {
  std::vector<vblock::IminQuery> out;
  for (const std::string& line : traced) {
    out.push_back(vblock::ParseCommand(line)->request.query);
    if (out.size() == kReplayQueries) break;
  }
  return out;
}

// Re-asks every distinct query on a cold pool (EVICT POOLS before each, on
// the connection that owns the query's key) and requires the same answer.
void CheckWarmEqualsCold(Mux& mux, const std::map<std::string, Distinct>& distinct,
                         Report* report) {
  std::vector<std::deque<std::string>> script(mux.size());
  for (const auto& [line, d] : distinct) {
    script[d.owner].push_back("EVICT POOLS");
    script[d.owner].push_back(line);
  }
  const bool ok = ClosedLoop(
      mux,
      [&](size_t c) -> std::optional<std::string> {
        if (script[c].empty()) return std::nullopt;
        std::string line = std::move(script[c].front());
        script[c].pop_front();
        ++report->attempted;
        return line;
      },
      [&](const Exchange& x) {
        if (x.sent == "EVICT POOLS") {
          if (x.reply.rfind("OK ", 0) != 0) report->Fail("EVICT POOLS: " + x.reply);
          return;
        }
        const Distinct& d = distinct.at(x.sent);
        if (Field(x.reply, "pool") != "cold" || ParseBlockers(x.reply) != d.blockers) {
          report->Fail("warm != cold for '" + x.sent + "': cold gave '" + x.reply + "'");
        }
      });
  if (!ok) report->Fail("warm/cold check: " + mux.error());
}

}  // namespace

// ---------------------------------------------------------------------------
// serve-warm
// ---------------------------------------------------------------------------

namespace {
constexpr const char* kWarmDataset = "Facebook";  // BA family
constexpr double kWarmScale = 0.5;
constexpr uint64_t kWarmGraphSeed = 7;
// Reach band of the keys, in vertices: around the median of random 5-sets
// on this graph, so the keys cost alike.
constexpr ReachBand kWarmBand = {50, 54, 34, 39};
constexpr uint32_t kWarmTheta = 2000;
constexpr size_t kWarmConns = 2;
constexpr size_t kKeysPerConn = 6;
constexpr uint32_t kWarmBudgets[] = {5, 10, 15, 20};
constexpr size_t kWarmUpdates = 24;
constexpr uint32_t kWarmSwapPairs = 20;
constexpr uint64_t kEvalEvery = 4;
}  // namespace

void RunServeWarm(const Args& args, Report* report, LayerValues* layers,
                  SpanLog* log) {
  const std::string load = LoadLine(kWarmDataset, kWarmScale, kWarmGraphSeed, "wc");
  vblock::ServiceOptions options;
  options.num_threads = 2;
  ServiceTimes times;  // outlives the server that logs into it
  if (args.trace) times.Install(&options);

  std::vector<std::vector<VertexId>> keys;
  std::vector<double> setup_s;
  SpeedProbe probe;
  Served s;
  // One SOLVE per key, connections in parallel, leaves every key resident.
  auto warm_keys = [&](bool expect_cold) {
    std::vector<size_t> warmed(kWarmConns, 0);
    const bool ok = ClosedLoop(
        *s.mux,
        [&](size_t c) -> std::optional<std::string> {
          if (warmed[c] == kKeysPerConn) return std::nullopt;
          ++report->attempted;
          return SolveLine(keys[c * kKeysPerConn + warmed[c]++], 5, false,
                           kWarmTheta);
        },
        [&](const Exchange& x) {
          if (x.reply.rfind("OK ", 0) != 0 ||
              (expect_cold && Field(x.reply, "pool") != "cold")) {
            report->Fail("warming '" + x.sent + "': " + x.reply);
          }
        });
    if (!ok) report->Fail("warming: " + s.mux->error());
    return ok;
  };
  for (int i = 0; i < kSetups; ++i) {
    s = Served{};  // tears the previous set-up down before timing the next
    const int64_t t0 = NowNs();
    s = StartServed(options, kWarmConns, load, report);
    if (!s.server) return;
    if (keys.empty()) {
      Rng rng(SubSeed(args.seed, "keys"));
      const std::vector<VertexId> candidates = SpreadingVertices(s.graph->graph);
      while (keys.size() < kWarmConns * kKeysPerConn) {
        std::vector<VertexId> k = DrawBandedSeedSet(
            rng, s.graph->graph, candidates, kSeedsPerKey, kWarmBand);
        if (std::find(keys.begin(), keys.end(), k) == keys.end()) keys.push_back(k);
      }
    }
    if (!warm_keys(true)) return;
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    ProbeHost(&probe, kProbesPerSetup);
  }
  const vblock::Graph& g = s.graph->graph;
  std::printf("serve-warm: graph %s scale %.2f seed %llu: n=%u m=%llu\n",
              kWarmDataset, kWarmScale, static_cast<unsigned long long>(kWarmGraphSeed),
              g.NumVertices(), static_cast<unsigned long long>(g.NumEdges()));

  // The timed window: each connection cycles SOLVEs over its own keys, and
  // after every kEvalEvery-th answer EVALs it.
  std::vector<Rng> conn_rng;
  for (size_t c = 0; c < kWarmConns; ++c) {
    conn_rng.emplace_back(SubSeed(args.seed, "conn" + std::to_string(c)));
  }
  std::map<std::string, Distinct> distinct;
  std::set<std::string> traced_lines;
  uint64_t cold_in_window = 0;
  LatencyLog solve_lat, traced_lat, eval_lat;
  StatsDelta delta;
  if (args.trace) delta.Begin(s.server->service());
  uint64_t solved = 0;
  {
    const int64_t start = NowNs();
    const int64_t end = start + static_cast<int64_t>(args.seconds * 1e9);
    ProbeClock probe_clock(start);
    std::vector<bool> sent_traced(kWarmConns, false);
    std::vector<uint64_t> answered(kWarmConns, 0);
    std::vector<std::string> eval_next(kWarmConns);
    const bool ok = ClosedLoop(
        *s.mux,
        [&](size_t c) -> std::optional<std::string> {
          const int64_t now = NowNs();
          if (now >= end) return std::nullopt;
          if (!eval_next[c].empty()) return std::exchange(eval_next[c], {});
          sent_traced[c] = TracedSlice(args.trace, start, now);
          Rng& rng = conn_rng[c];
          const auto& key = keys[c * kKeysPerConn + Below(rng, kKeysPerConn)];
          const uint32_t budget = kWarmBudgets[Below(rng, 4)];
          const bool gr = Below(rng, 4) == 0;  // AG:GR = 3:1
          return SolveLine(key, budget, gr, kWarmTheta) +
                 (sent_traced[c] ? kTraceKnob : "");
        },
        [&](const Exchange& x) {
          if (x.sent.rfind("EVAL", 0) == 0) {
            if (ParseSpread(x.reply, kSeedsPerKey, g.NumVertices())) {
              eval_lat.Record(x.ms());
            } else {
              eval_lat.Fail();
              std::printf("FAIL EVAL reply '%s'\n", x.reply.c_str());
            }
            return;
          }
          const size_t c = x.conn;
          const std::string line = Untraced(x.sent);
          LatencyLog* lat = sent_traced[c] ? &traced_lat : &solve_lat;
          const auto blockers = CheckSolve(line, x.reply, g, &distinct, c, report, true);
          if (!blockers) {
            lat->Fail();
            return;
          }
          lat->Record(x.ms());
          if (++answered[c] % kEvalEvery == 0) {
            eval_next[c] = EvalLine(distinct.at(line).query.seeds, *blockers);
          }
          if (x.received_ns <= end) ++solved;
          if (Field(x.reply, "pool") != "warm") ++cold_in_window;
          if (sent_traced[c]) {
            traced_lines.insert(line);
            times.Attribute(x.reply, x.sent_ns, x.received_ns, log);
          }
        },
        {&probe_clock, &probe});
    if (!ok) report->Fail("window: " + s.mux->error());
  }
  if (args.trace) {
    delta.End(s.server->service(), layers);
    times.AddLayers(layers);
  }
  report->Count(solve_lat);
  report->Count(traced_lat);
  report->Count(eval_lat);

  // Pre-generated update deltas (probability swaps keep the classes of the
  // weighted-cascade graph, so every warm entry can migrate).
  EdgeTracker tracker(g);
  Rng delta_rng(SubSeed(args.seed, "deltas"));
  std::vector<vblock::GraphDelta> deltas;
  for (size_t i = 0; i < kWarmUpdates; ++i) {
    deltas.push_back(tracker.SwapProbabilities(delta_rng, kWarmSwapPairs));
  }

  if (args.trace) {
    ReplayInput in;
    in.graph = &g;
    in.epoch = s.graph->epoch;
    in.service = &s.server->service();
    in.defaults = s.server->service().options().defaults;
    in.queries = ReplayQueries(traced_lines);
    in.update_base = &g;
    in.deltas = deltas;
    ReplayLayers(in, log, layers);
  }

  CheckWarmEqualsCold(*s.mux, distinct, report);

  // update_ms: each UPDATE arrives with every key resident and carries
  // them to the new epoch (keys an update dropped are rebuilt, untimed,
  // before the next).
  LatencyLog update_lat;
  uint64_t migrated = 0, dropped = 0;
  for (const vblock::GraphDelta& d : deltas) {
    if (!warm_keys(false)) return;
    const int64_t t0 = NowNs();
    std::optional<std::string> r = s.mux->Roundtrip(0, UpdateLine(kGraph, d));
    const double ms = MsSince(t0, NowNs());
    if (!r || r->rfind("OK ", 0) != 0) {
      update_lat.Fail();
      std::printf("FAIL UPDATE: %s\n", r ? r->c_str() : s.mux->error().c_str());
      continue;
    }
    update_lat.Record(ms);
    migrated += std::stoull(Field(*r, "migrated").value_or("0"));
    dropped += std::stoull(Field(*r, "rebuilt").value_or("0"));
  }
  report->Count(update_lat);

  if (args.trace) {
    (*layers)["service.migrated"] = static_cast<double>(migrated);
    (*layers)["service.dropped"] = static_cast<double>(dropped);
    (*layers)["obs.probe_ms"] = probe.MedianMs();
    (*layers)["obs.trace_overhead"] =
        traced_lat.Percentile(50) / solve_lat.Percentile(50) - 1;
    TimeGeneration(kWarmDataset, kWarmScale, kWarmGraphSeed, false, log, layers);
    return;
  }

  const SpreadEstimate blocked = BlockedSpread(g, AnswersOf(distinct));
  std::printf(
      "serve-warm: %llu solves (p%.0f is the highest tail with >=10 beyond), "
      "%llu cold in window, %zu distinct queries, blocked_spread %.4f +- %.4f, "
      "updates migrated %llu dropped %llu\n",
      static_cast<unsigned long long>(solved),
      HighestTailPercentile(solve_lat.attempted()),
      static_cast<unsigned long long>(cold_in_window), distinct.size(),
      blocked.mean, blocked.stderr_of_mean,
      static_cast<unsigned long long>(migrated),
      static_cast<unsigned long long>(dropped));
  if (cold_in_window > 0) report->Fail("serve-warm built pools in its window");

  ReportEndToEnd(setup_s, solve_lat, solved, args.seconds, eval_lat,
                 update_lat, blocked, probe, report);
}

// ---------------------------------------------------------------------------
// serve-churn
// ---------------------------------------------------------------------------

namespace {
constexpr const char* kChurnDataset = "Wiki-Vote";  // R-MAT family
constexpr double kChurnScale = 0.1;
constexpr uint64_t kChurnGraphSeed = 7;  // the solve-cold graph
constexpr ReachBand kChurnBand = {38, 44, 9, 11};
constexpr uint32_t kChurnTheta = 1000;
constexpr size_t kReaders = 1;
constexpr size_t kChurnKeys = 64;
constexpr double kZipfExponent = 0.8;
constexpr uint64_t kChurnCacheBytes = 100ull << 20;
constexpr uint32_t kChurnBudgets[] = {5, 10, 20};
constexpr size_t kOpeningSolves = 48;
constexpr double kUpdatePeriodSeconds = 2.0;
constexpr uint32_t kQuietBudget = 10;
}  // namespace

void RunServeChurn(const Args& args, Report* report, LayerValues* layers,
                   SpanLog* log) {
  const std::string load = LoadLine(kChurnDataset, kChurnScale, kChurnGraphSeed, "tr");
  vblock::ServiceOptions options;
  options.num_threads = 2;
  options.cache.max_bytes = kChurnCacheBytes;
  ServiceTimes times;  // outlives the server that logs into it
  if (args.trace) times.Install(&options);

  std::vector<std::vector<VertexId>> keys;
  std::vector<uint32_t> key_order;  // Zipf rank -> key
  const ZipfSampler zipf(kChurnKeys, kZipfExponent);
  std::vector<Rng> reader_rng;
  auto next_solve = [&](size_t reader) {
    Rng& rng = reader_rng[reader];
    const auto& key = keys[key_order[zipf(rng)]];
    return SolveLine(key, kChurnBudgets[Below(rng, 3)], Below(rng, 2) == 1,
                     kChurnTheta);
  };

  std::vector<double> setup_s;
  SpeedProbe probe;
  Served s;
  std::map<std::string, Distinct> distinct;  // per epoch; reset on UPDATE
  for (int i = 0; i < kSetups; ++i) {
    s = Served{};
    const int64_t t0 = NowNs();
    s = StartServed(options, kReaders + 1, load, report);
    if (!s.server) return;
    if (keys.empty()) {
      Rng rng(SubSeed(args.seed, "keys"));
      const std::vector<VertexId> candidates = SpreadingVertices(s.graph->graph);
      std::set<std::vector<VertexId>> seen;
      while (keys.size() < kChurnKeys) {
        std::vector<VertexId> k = DrawBandedSeedSet(
            rng, s.graph->graph, candidates, kSeedsPerKey, kChurnBand);
        if (seen.insert(k).second) keys.push_back(std::move(k));
      }
      for (uint32_t k = 0; k < kChurnKeys; ++k) key_order.push_back(k);
      std::shuffle(key_order.begin(), key_order.end(), rng);
    }
    reader_rng.clear();
    for (size_t r = 0; r < kReaders; ++r) {
      reader_rng.emplace_back(SubSeed(args.seed, "reader" + std::to_string(r)));
    }
    // Fill the cache to its steady state with the reader's opening stream.
    size_t opened = 0;
    const bool ok = ClosedLoop(
        *s.mux,
        [&](size_t c) -> std::optional<std::string> {
          if (c >= kReaders || opened == kOpeningSolves) return std::nullopt;
          ++opened;
          ++report->attempted;
          return next_solve(c);
        },
        [&](const Exchange& x) {
          CheckSolve(x.sent, x.reply, s.graph->graph, &distinct, x.conn, report, true);
        });
    if (!ok) return report->Fail("warm-up: " + s.mux->error());
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    ProbeHost(&probe, kProbesPerSetup);
  }
  const vblock::GraphRegistry::SnapshotPtr base = s.graph;
  std::printf("serve-churn: graph %s scale %.2f seed %llu: n=%u m=%llu\n",
              kChurnDataset, kChurnScale,
              static_cast<unsigned long long>(kChurnGraphSeed),
              base->graph.NumVertices(),
              static_cast<unsigned long long>(base->graph.NumEdges()));

  // The writer's deltas, generated up front against the generator's own
  // copy of the graph so each is valid after all earlier ones.
  EdgeTracker tracker(base->graph);
  Rng delta_rng(SubSeed(args.seed, "deltas"));
  const uint32_t changes = std::max<uint32_t>(
      2, static_cast<uint32_t>(base->graph.NumEdges() / 1000));
  std::vector<vblock::GraphDelta> deltas;
  const size_t max_updates =
      static_cast<size_t>(args.seconds / kUpdatePeriodSeconds) + 2;
  for (size_t i = 0; i < max_updates; ++i) {
    deltas.push_back(tracker.Churn(delta_rng, changes));
  }

  // The window: the reader in a closed loop (SOLVE, then EVAL of its answer),
  // the writer sending one UPDATE each period, timed from when it was due.
  // Index 0 of each log pair is untraced, 1 traced (traced runs only).
  LatencyLog solve_lat[2], eval_lat[2], update_lat[2];
  std::set<std::string> traced_lines;
  std::vector<double> lateness_ms;
  uint64_t solved = 0, migrated = 0, dropped = 0;
  StatsDelta delta;
  if (args.trace) delta.Begin(s.server->service());
  {
    const size_t writer = kReaders;
    size_t next_delta = 0;
    const int64_t start = NowNs();
    const int64_t end = start + static_cast<int64_t>(args.seconds * 1e9);
    const auto period = static_cast<int64_t>(kUpdatePeriodSeconds * 1e9);
    int64_t next_due = start + period;
    ProbeClock probe_clock(start);
    struct Pending {
      std::string line;
      int64_t sent_ns = 0;
      int64_t due_ns = 0;
      bool traced = false;
    };
    std::vector<std::deque<Pending>> pending(kReaders + 1);
    std::map<std::string, Distinct> answers;  // graph changes: no repeat check
    auto send = [&](size_t c, std::string line, int64_t due) {
      const int64_t now = NowNs();
      const bool traced = TracedSlice(args.trace, start, now);
      const bool knob = traced && line.rfind("SOLVE", 0) == 0;
      pending[c].push_back({line, now, due, traced});
      return s.mux->Send(c, knob ? line + kTraceKnob : line);
    };
    bool ok = true;
    for (size_t c = 0; c < kReaders && ok; ++c) ok = send(c, next_solve(c), 0);
    while (ok) {
      const bool open = NowNs() < end;
      size_t busy = 0;
      for (const auto& p : pending) busy += p.size();
      if (!open && busy == 0) break;
      const int64_t wake = open ? std::min(end, next_due)
                                : NowNs() + static_cast<int64_t>(kTimeoutSeconds * 1e9);
      std::optional<Reply> r = s.mux->Next(wake);
      if (open && next_due <= end && NowNs() >= next_due &&
          next_delta < deltas.size()) {
        lateness_ms.push_back(MsSince(next_due, NowNs()));
        ok = send(writer, UpdateLine(kGraph, deltas[next_delta++]), next_due);
        next_due += period;
      }
      if (!r) {
        if (!open || !s.mux->error().empty()) {
          report->Fail("churn window: " + s.mux->error());
          ok = false;
        }
        continue;
      }
      Pending p = std::move(pending[r->conn].front());
      pending[r->conn].pop_front();
      const double ms = MsSince(p.sent_ns, r->received_ns);
      if (r->conn == writer) {
        if (r->line.rfind("OK ", 0) != 0) {
          update_lat[p.traced].Fail();
          std::printf("FAIL UPDATE: %s\n", r->line.c_str());
          continue;
        }
        update_lat[p.traced].Record(MsSince(p.due_ns, r->received_ns));
        migrated += std::stoull(Field(r->line, "migrated").value_or("0"));
        dropped += std::stoull(Field(r->line, "rebuilt").value_or("0"));
        continue;
      }
      if (p.line.rfind("SOLVE", 0) == 0) {
        const vblock::Graph& current = (*s.server->registry().Get(kGraph))->graph;
        std::optional<std::vector<VertexId>> b =
            CheckSolve(p.line, r->line, current, &answers, r->conn, report, false);
        if (b) {
          solve_lat[p.traced].Record(ms);
          if (r->received_ns <= end) ++solved;
          if (p.traced) {
            traced_lines.insert(p.line);
            times.Attribute(r->line, p.sent_ns, r->received_ns, log);
          }
          const auto cmd = vblock::ParseCommand(p.line);
          ok = send(r->conn, EvalLine(cmd->request.query.seeds, *b), 0);
          continue;
        }
        solve_lat[p.traced].Fail();
      } else if (ParseSpread(r->line, kSeedsPerKey, base->graph.NumVertices())) {
        eval_lat[p.traced].Record(ms);
      } else {
        eval_lat[p.traced].Fail();
        std::printf("FAIL EVAL reply '%s'\n", r->line.c_str());
      }
      // The reader's request is answered; probe if no UPDATE is in flight.
      if (probe_clock.due() && pending[writer].empty()) probe_clock.Run(&probe);
      if (NowNs() < end) ok = send(r->conn, next_solve(r->conn), 0);
    }
  }
  if (args.trace) {
    delta.End(s.server->service(), layers);
    times.AddLayers(layers);
  }
  for (const LatencyLog* logs : {solve_lat, eval_lat, update_lat}) {
    report->Count(logs[0]);
    report->Count(logs[1]);
  }

  const vblock::GraphRegistry::SnapshotPtr final_graph =
      *s.server->registry().Get(kGraph);
  if (args.trace) {
    ReplayInput in;
    in.graph = &final_graph->graph;
    in.epoch = final_graph->epoch;
    in.service = &s.server->service();
    in.defaults = s.server->service().options().defaults;
    in.queries = ReplayQueries(traced_lines);
    in.update_base = &base->graph;
    in.deltas = deltas;
    ReplayLayers(in, log, layers);
  }

  // Quiet phase: every key once warm-or-migrated, then once more after
  // EVICT POOLS, cold; migrated must equal rebuilt.
  std::map<std::string, Distinct> quiet;
  uint64_t quiet_warm = 0;
  std::vector<std::deque<std::string>> script(kReaders + 1);
  for (size_t k = 0; k < kChurnKeys; ++k) {
    script[k % kReaders].push_back(SolveLine(keys[k], kQuietBudget, false, kChurnTheta));
  }
  auto pop = [&](size_t c) -> std::optional<std::string> {
    if (script[c].empty()) return std::nullopt;
    std::string line = std::move(script[c].front());
    script[c].pop_front();
    ++report->attempted;
    return line;
  };
  bool ok = ClosedLoop(*s.mux, pop,
                       [&](const Exchange& x) {
                         if (CheckSolve(x.sent, x.reply, final_graph->graph, &quiet, x.conn,
                                        report, true) &&
                             Field(x.reply, "pool") == "warm") {
                           ++quiet_warm;
                         }
                       });
  if (!ok) report->Fail("quiet phase: " + s.mux->error());
  CheckWarmEqualsCold(*s.mux, quiet, report);

  const double late_p50 = lateness_ms.empty() ? 0 : Median(lateness_ms);
  if (args.trace) {
    (*layers)["obs.writer_late_ms"] = late_p50;
    (*layers)["service.migrated"] = static_cast<double>(migrated);
    (*layers)["service.dropped"] = static_cast<double>(dropped);
    (*layers)["obs.probe_ms"] = probe.MedianMs();
    (*layers)["obs.trace_overhead"] =
        solve_lat[1].Percentile(50) / solve_lat[0].Percentile(50) - 1;
    TimeGeneration(kChurnDataset, kChurnScale, kChurnGraphSeed, true, log, layers);
    return;
  }

  const SpreadEstimate blocked = BlockedSpread(final_graph->graph, AnswersOf(quiet));
  const vblock::PoolCache::Stats cache = s.server->service().pool_cache().stats();
  std::printf(
      "serve-churn: %llu solves (p%.0f is the highest tail with >=10 beyond), "
      "%zu updates (writer late p50 %.3f ms), migrated %llu dropped %llu, "
      "cache hits %llu misses %llu evictions %llu, quiet warm %llu/%zu, "
      "blocked_spread %.4f +- %.4f\n",
      static_cast<unsigned long long>(solved),
      HighestTailPercentile(solve_lat[0].attempted()), lateness_ms.size(), late_p50,
      static_cast<unsigned long long>(migrated),
      static_cast<unsigned long long>(dropped),
      static_cast<unsigned long long>(cache.hits),
      static_cast<unsigned long long>(cache.misses),
      static_cast<unsigned long long>(cache.evictions),
      static_cast<unsigned long long>(quiet_warm), kChurnKeys, blocked.mean,
      blocked.stderr_of_mean);

  ReportEndToEnd(setup_s, solve_lat[0], solved, args.seconds, eval_lat[0],
                 update_lat[0], blocked, probe, report);
}

}  // namespace perfbench
