#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/obs.hpp"

namespace fdks::obs::trace {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_generation{1};
std::atomic<std::size_t> g_capacity{1 << 16};
std::atomic<std::uint64_t> g_tid_counter{1};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Single-writer ring with drop-newest overflow: the owning thread is
// the only writer; readers see the prefix published by the release
// store of size_. Slots below the published size are never mutated
// again, so concurrent collect() is race-free.
struct TraceBuffer {
  explicit TraceBuffer(std::size_t cap) : slots(cap) {}

  std::vector<Event> slots;
  std::atomic<std::size_t> size{0};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<int> rank{-1};
  std::uint64_t tid = 0;

  void emit(const Event& ev) {
    const std::size_t n = size.load(std::memory_order_relaxed);
    if (n >= slots.size()) {
      dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    slots[n] = ev;
    size.store(n + 1, std::memory_order_release);
  }
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<TraceBuffer>> buffers;
};

Registry& registry() {
  static Registry* r = new Registry();  // Leaked: usable at exit.
  return *r;
}

TraceBuffer& thread_buffer() {
  thread_local TraceBuffer* cached = nullptr;
  thread_local std::uint64_t cached_gen = 0;
  const std::uint64_t gen = g_generation.load(std::memory_order_acquire);
  if (cached == nullptr || cached_gen != gen) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.buffers.push_back(std::make_unique<TraceBuffer>(
        g_capacity.load(std::memory_order_relaxed)));
    cached = r.buffers.back().get();
    cached->tid = g_tid_counter.fetch_add(1, std::memory_order_relaxed);
    cached_gen = gen;
  }
  return *cached;
}

void emit_named(Event::Type type, std::string_view name, std::uint64_t id,
                std::int32_t a, std::int32_t b) {
  Event ev;
  ev.ts_ns = now_ns();
  ev.type = type;
  ev.id = id;
  ev.a = a;
  ev.b = b;
  const std::size_t n = std::min(name.size(), Event::kNameCap);
  // end() emits an empty name, whose data() may be null: memcpy from a
  // null pointer is undefined even for zero bytes.
  if (n > 0) std::memcpy(ev.name, name.data(), n);
  ev.name[n] = '\0';
  thread_buffer().emit(ev);
}

void append_json_number(std::string& out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  out += buf;
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

void reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.buffers.clear();
  g_generation.fetch_add(1, std::memory_order_acq_rel);
}

void set_capacity(std::size_t events_per_thread) {
  g_capacity.store(std::max<std::size_t>(events_per_thread, 16),
                   std::memory_order_relaxed);
}

void set_thread_track(int rank) {
  // Register the buffer even while disabled so a later enable exports
  // the rank row; the store itself is cheap.
  thread_buffer().rank.store(rank, std::memory_order_relaxed);
}

void warm() {
  // Gated on enabled(): a process that never traces should not pay a
  // capacity-sized allocation per worker thread.
  if (enabled()) (void)thread_buffer();
}

void begin(std::string_view name) {
  if (!enabled()) return;
  emit_named(Event::kBegin, name, 0, 0, 0);
}

void end() {
  if (!enabled()) return;
  emit_named(Event::kEnd, {}, 0, 0, 0);
}

void instant(std::string_view name) {
  if (!enabled()) return;
  emit_named(Event::kInstant, name, 0, 0, 0);
}

void flow_send(std::uint64_t id, int peer, int tag) {
  if (!enabled()) return;
  emit_named(Event::kFlowSend, "msg", id, peer, tag);
}

void flow_recv(std::uint64_t id, int peer, int tag) {
  if (!enabled()) return;
  emit_named(Event::kFlowRecv, "msg", id, peer, tag);
}

TraceData collect() {
  TraceData d;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  d.threads.reserve(r.buffers.size());
  for (const auto& b : r.buffers) {
    ThreadTrace t;
    t.rank = b->rank.load(std::memory_order_relaxed);
    t.tid = b->tid;
    t.dropped = b->dropped.load(std::memory_order_relaxed);
    const std::size_t n = b->size.load(std::memory_order_acquire);
    t.events.assign(b->slots.begin(),
                    b->slots.begin() + static_cast<std::ptrdiff_t>(n));
    if (!t.events.empty() || t.rank >= 0) d.threads.push_back(std::move(t));
  }
  return d;
}

// ---- Chrome trace-event export ---------------------------------------

std::string chrome_trace_json(const TraceData& d) {
  constexpr int kHostPid = 99999;

  std::uint64_t t0 = UINT64_MAX;
  for (const ThreadTrace& t : d.threads)
    for (const Event& e : t.events) t0 = std::min(t0, e.ts_ns);
  if (t0 == UINT64_MAX) t0 = 0;

  std::string out;
  out.reserve(1 << 16);
  out += "{\"traceEvents\":[";
  bool first = true;
  auto comma = [&] {
    if (!first) out += ',';
    first = false;
    out += '\n';
  };
  auto us = [&](std::uint64_t ts_ns) {
    return static_cast<double>(ts_ns - t0) * 1e-3;
  };

  // Process/thread name metadata (one process row per rank).
  std::vector<int> pids_named;
  std::uint64_t orphans = 0;
  for (const ThreadTrace& t : d.threads) {
    const int pid = t.rank >= 0 ? t.rank : kHostPid;
    if (std::find(pids_named.begin(), pids_named.end(), pid) ==
        pids_named.end()) {
      pids_named.push_back(pid);
      comma();
      out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
             std::to_string(pid) + ",\"tid\":0,\"args\":{\"name\":\"" +
             (t.rank >= 0 ? "rank " + std::to_string(t.rank)
                          : std::string("host")) +
             "\"}}";
      // Sort rank rows ascending in the Perfetto UI.
      comma();
      out += "{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":" +
             std::to_string(pid) + ",\"tid\":0,\"args\":{\"sort_index\":" +
             std::to_string(pid) + "}}";
    }
    comma();
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" +
           std::to_string(pid) + ",\"tid\":" + std::to_string(t.tid) +
           ",\"args\":{\"name\":\"" +
           (t.rank >= 0 ? "rank " + std::to_string(t.rank)
                        : "thread " + std::to_string(t.tid)) +
           "\"}}";
  }

  for (const ThreadTrace& t : d.threads) {
    const int pid = t.rank >= 0 ? t.rank : kHostPid;
    const std::string pidtid = "\"pid\":" + std::to_string(pid) +
                               ",\"tid\":" + std::to_string(t.tid);
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < t.events.size(); ++i) {
      const Event& e = t.events[i];
      switch (e.type) {
        case Event::kBegin:
          stack.push_back(i);
          break;
        case Event::kEnd: {
          if (stack.empty()) {
            ++orphans;
            break;
          }
          const Event& b = t.events[stack.back()];
          stack.pop_back();
          comma();
          out += "{\"name\":\"" + json_escape(b.name) +
                 "\",\"ph\":\"X\",\"ts\":";
          append_json_number(out, us(b.ts_ns));
          out += ",\"dur\":";
          append_json_number(out,
                             static_cast<double>(e.ts_ns - b.ts_ns) * 1e-3);
          out += "," + pidtid + "}";
          break;
        }
        case Event::kInstant:
          comma();
          out += "{\"name\":\"" + json_escape(e.name) +
                 "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
          append_json_number(out, us(e.ts_ns));
          out += "," + pidtid + "}";
          break;
        case Event::kFlowSend:
        case Event::kFlowRecv: {
          const bool is_send = e.type == Event::kFlowSend;
          char idbuf[32];
          std::snprintf(idbuf, sizeof(idbuf), "0x%llx",
                        static_cast<unsigned long long>(e.id));
          comma();
          out += std::string("{\"name\":\"msg\",\"cat\":\"comm\",\"ph\":\"") +
                 (is_send ? "s" : "f") +
                 (is_send ? "" : "\",\"bp\":\"e") + "\",\"id\":\"" + idbuf +
                 "\",\"ts\":";
          append_json_number(out, us(e.ts_ns));
          out += "," + pidtid + ",\"args\":{\"" +
                 (is_send ? "to" : "from") + "\":" + std::to_string(e.a) +
                 ",\"tag\":" + std::to_string(e.b) + "}}";
          break;
        }
      }
    }
    orphans += stack.size();  // Begins still open at collection time.
  }

  out += "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{";
  std::uint64_t dropped = 0;
  for (const ThreadTrace& t : d.threads) dropped += t.dropped;
  out += "\"schema\":\"fdks-trace-v1\",\"dropped_events\":" +
         std::to_string(dropped) +
         ",\"orphaned_span_events\":" + std::to_string(orphans) + "}}\n";
  return out;
}

bool write_chrome_trace(const std::string& path, const TraceData& d) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "trace: cannot open %s for writing\n", path.c_str());
    return false;
  }
  const std::string body = chrome_trace_json(d);
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "trace: short write to %s\n", path.c_str());
  return ok;
}

bool write_chrome_trace(const std::string& path) {
  return write_chrome_trace(path, collect());
}

// ---- Critical-path analysis ------------------------------------------

namespace {

struct SendOp {
  int rank = -1;
  std::uint64_t ts = 0;
  std::uint64_t flow = 0;
  std::int32_t tag = 0;
};

struct RecvOp {
  int rank = -1;
  std::uint64_t wb = 0, we = 0;  ///< Wait begin / completion.
  std::uint64_t flow = 0;        ///< 0 when the send event was lost.
  std::int32_t tag = 0;
};

struct ChainNode {
  CriticalPath::Segment seg;
  std::ptrdiff_t parent = -1;
};

constexpr std::string_view kRecvSpan = "mpisim.recv";

}  // namespace

double CriticalPath::max_busy_seconds() const {
  double m = 0.0;
  for (const auto& [rank, busy] : rank_busy_seconds)
    m = std::max(m, busy);
  return m;
}

CriticalPath critical_path(const TraceData& d) {
  CriticalPath cp;

  // Per-rank op lists and timeline extents, pairing recv spans within
  // each thread (a rank is normally one mpisim thread; extra threads
  // tagged with the same rank merge by time).
  std::vector<SendOp> sends;
  std::vector<RecvOp> recvs;
  std::map<int, std::uint64_t> first_ts, last_ts;
  for (const ThreadTrace& t : d.threads) {
    if (t.rank < 0 || t.events.empty()) continue;
    auto& ft = first_ts
                   .try_emplace(t.rank, t.events.front().ts_ns)
                   .first->second;
    auto& lt = last_ts.try_emplace(t.rank, t.events.back().ts_ns)
                   .first->second;
    ft = std::min(ft, t.events.front().ts_ns);
    lt = std::max(lt, t.events.back().ts_ns);

    struct OpenSpan {
      std::uint64_t ts;
      bool is_recv;
      RecvOp op;
    };
    std::vector<OpenSpan> stack;
    for (const Event& e : t.events) {
      switch (e.type) {
        case Event::kBegin:
          stack.push_back({e.ts_ns, kRecvSpan == e.name, {}});
          break;
        case Event::kEnd:
          if (!stack.empty()) {
            OpenSpan s = std::move(stack.back());
            stack.pop_back();
            if (s.is_recv) {
              s.op.rank = t.rank;
              s.op.wb = s.ts;
              s.op.we = e.ts_ns;
              recvs.push_back(s.op);
            }
          }
          break;
        case Event::kFlowSend:
          sends.push_back({t.rank, e.ts_ns, e.id, e.b});
          break;
        case Event::kFlowRecv:
          // Attach to the innermost open recv span.
          for (auto it = stack.rbegin(); it != stack.rend(); ++it)
            if (it->is_recv) {
              it->op.flow = e.id;
              it->op.tag = e.b;
              break;
            }
          break;
        case Event::kInstant:
          break;
      }
    }
  }
  if (first_ts.empty()) return cp;

  // Busy time: timeline span minus time blocked inside recv waits.
  std::map<int, std::uint64_t> blocked;
  for (const RecvOp& r : recvs) blocked[r.rank] += r.we - r.wb;
  std::uint64_t wall_lo = UINT64_MAX, wall_hi = 0;
  for (const auto& [rank, ft] : first_ts) {
    const std::uint64_t span = last_ts[rank] - ft;
    const std::uint64_t blk = std::min(blocked[rank], span);
    cp.rank_busy_seconds[rank] = static_cast<double>(span - blk) * 1e-9;
    wall_lo = std::min(wall_lo, ft);
    wall_hi = std::max(wall_hi, last_ts[rank]);
  }
  cp.wall_seconds = static_cast<double>(wall_hi - wall_lo) * 1e-9;

  // Longest-chain DP over ops in global time order. Per rank: cp_ns is
  // the longest chain ending "now"; work intervals extend it, a recv
  // that waited may switch the chain to sender_cp + message latency.
  struct Op {
    std::uint64_t time;
    bool is_recv;
    std::size_t idx;
  };
  std::vector<Op> ops;
  ops.reserve(sends.size() + recvs.size());
  for (std::size_t i = 0; i < sends.size(); ++i)
    ops.push_back({sends[i].ts, false, i});
  for (std::size_t i = 0; i < recvs.size(); ++i)
    ops.push_back({recvs[i].we, true, i});
  std::sort(ops.begin(), ops.end(), [](const Op& a, const Op& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.is_recv < b.is_recv;  // Sends first at equal timestamps.
  });

  std::vector<ChainNode> arena;
  struct RankState {
    std::uint64_t last_t = 0;
    std::uint64_t cp_ns = 0;
    std::ptrdiff_t head = -1;
  };
  std::map<int, RankState> st;
  for (const auto& [rank, ft] : first_ts) st[rank].last_t = ft;

  auto advance = [&](int rank, std::uint64_t t) {
    RankState& s = st[rank];
    if (t <= s.last_t) return;
    // Coalesce consecutive work on the same rank into one segment.
    if (s.head >= 0 && !arena[static_cast<std::size_t>(s.head)].seg.via_message &&
        arena[static_cast<std::size_t>(s.head)].seg.rank == rank &&
        arena[static_cast<std::size_t>(s.head)].seg.t1_ns == s.last_t) {
      arena[static_cast<std::size_t>(s.head)].seg.t1_ns = t;
    } else {
      ChainNode n;
      n.seg.rank = rank;
      n.seg.t0_ns = s.last_t;
      n.seg.t1_ns = t;
      n.parent = s.head;
      arena.push_back(n);
      s.head = static_cast<std::ptrdiff_t>(arena.size()) - 1;
    }
    s.cp_ns += t - s.last_t;
    s.last_t = t;
  };

  struct SendRecord {
    std::uint64_t cp_ns;
    std::ptrdiff_t head;
    int rank;
    std::uint64_t ts;
  };
  std::unordered_map<std::uint64_t, SendRecord> sent;

  for (const Op& op : ops) {
    if (!op.is_recv) {
      const SendOp& s = sends[op.idx];
      advance(s.rank, s.ts);
      const RankState& rs = st[s.rank];
      sent[s.flow] = {rs.cp_ns, rs.head, s.rank, s.ts};
    } else {
      const RecvOp& r = recvs[op.idx];
      advance(r.rank, r.wb);
      auto it = r.flow != 0 ? sent.find(r.flow) : sent.end();
      if (it == sent.end()) {
        // Unknown sender (dropped event): count the wait as local work
        // — conservative, keeps the chain within real time.
        advance(r.rank, r.we);
      } else {
        RankState& rs = st[r.rank];
        const std::uint64_t cand = it->second.cp_ns + (r.we - it->second.ts);
        if (cand > rs.cp_ns) {
          ChainNode n;
          n.seg.rank = r.rank;
          n.seg.t0_ns = it->second.ts;
          n.seg.t1_ns = r.we;
          n.seg.via_message = true;
          n.seg.from_rank = it->second.rank;
          n.seg.tag = r.tag;
          n.parent = it->second.head;
          arena.push_back(n);
          rs.head = static_cast<std::ptrdiff_t>(arena.size()) - 1;
          rs.cp_ns = cand;
        }
        rs.last_t = std::max(rs.last_t, r.we);
      }
    }
  }
  for (const auto& [rank, lt] : last_ts) advance(rank, lt);

  int best_rank = -1;
  std::uint64_t best_cp = 0;
  for (const auto& [rank, s] : st)
    if (best_rank < 0 || s.cp_ns > best_cp) {
      best_rank = rank;
      best_cp = s.cp_ns;
    }
  cp.total_seconds = static_cast<double>(best_cp) * 1e-9;
  for (std::ptrdiff_t i = st[best_rank].head; i >= 0;
       i = arena[static_cast<std::size_t>(i)].parent)
    cp.segments.push_back(arena[static_cast<std::size_t>(i)].seg);
  std::reverse(cp.segments.begin(), cp.segments.end());
  return cp;
}

std::string critical_path_report(const CriticalPath& cp) {
  char buf[160];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "critical path: %.6f s over wall %.6f s (%.1f%%), %zu "
                "segments\n",
                cp.total_seconds, cp.wall_seconds,
                cp.wall_seconds > 0.0
                    ? 100.0 * cp.total_seconds / cp.wall_seconds
                    : 0.0,
                cp.segments.size());
  out += buf;
  out += "  per-rank busy:";
  for (const auto& [rank, busy] : cp.rank_busy_seconds) {
    std::snprintf(buf, sizeof(buf), " r%d %.6f s", rank, busy);
    out += buf;
  }
  out += '\n';
  const std::size_t tail = 12;
  const std::size_t start =
      cp.segments.size() > tail ? cp.segments.size() - tail : 0;
  if (start > 0) {
    std::snprintf(buf, sizeof(buf), "  ... %zu earlier segments ...\n",
                  start);
    out += buf;
  }
  for (std::size_t i = start; i < cp.segments.size(); ++i) {
    const CriticalPath::Segment& s = cp.segments[i];
    if (s.via_message) {
      std::snprintf(buf, sizeof(buf),
                    "  [rank %d <- rank %d tag %d] message+wake %.6f s\n",
                    s.rank, s.from_rank, s.tag, s.seconds());
    } else {
      std::snprintf(buf, sizeof(buf), "  [rank %d] work %.6f s\n", s.rank,
                    s.seconds());
    }
    out += buf;
  }
  return out;
}

}  // namespace fdks::obs::trace
