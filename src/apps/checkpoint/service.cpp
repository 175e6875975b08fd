#include "apps/checkpoint/service.hpp"

#include <cstring>
#include <list>
#include <map>
#include <set>
#include <vector>

#include "apps/checkpoint/payload.hpp"
#include "apps/checkpoint/pool.hpp"
#include "core/ctx.hpp"

namespace gdrshmem::apps::ckpt {
namespace {

// ---- wire structures -------------------------------------------------------
// Every slot ends with a 64-bit `seq` signal word: the put_signal payload
// covers the fields before it, and the signal targets `seq` itself, so a
// reader that observes the new seq is guaranteed to see the fields (the
// signal never overtakes the data on any protocol path).

/// Client -> home server request slot, one per client on every server.
struct alignas(64) ReqSlot {
  std::uint64_t kind;     // 1 = checkpoint request, 2 = commit, 3 = done
  std::uint64_t version;
  std::uint64_t bytes;
  std::uint64_t sum;      // payload sum (commit only)
  std::uint64_t seq;      // signal: strictly increasing per client
};

/// Server -> client response slot; two per client (0 = grant/reject of a
/// request, 1 = ack of a commit).
struct alignas(64) RespSlot {
  std::uint64_t status;   // 1 = grant, 2 = reject, 3 = ack
  std::uint64_t offset;   // granted arena offset (grant only)
  std::uint64_t seq;
};

/// Replicated chunk-directory entry mapping (client, version) -> extent.
/// `gen` is a seqlock: even = stable, odd = the home server is moving the
/// payload (repack); a one-sided restore re-reads the entry after fetching
/// the payload and retries when gen changed.
struct alignas(64) DirEntry {
  std::uint64_t gen;
  std::uint64_t version;
  std::uint64_t state;    // 0 = empty/evicted, 1 = valid
  std::uint64_t server;   // home server PE owning the extent
  std::uint64_t offset;   // offset inside the home server's arena
  std::uint64_t bytes;    // exact payload bytes
  std::uint64_t sum;
};

constexpr std::uint64_t kKindRequest = 1;
constexpr std::uint64_t kKindCommit = 2;
constexpr std::uint64_t kKindDone = 3;
constexpr std::uint64_t kStatusGrant = 1;
constexpr std::uint64_t kStatusReject = 2;
constexpr std::uint64_t kStatusAck = 3;

std::uint64_t make_key(int ci, std::uint64_t version) {
  return (static_cast<std::uint64_t>(ci) << 32) | (version & 0xffffffffULL);
}

/// Per-client outcome, written by each client fiber into its own slot and
/// folded after the run (single process: plain shared memory, race-free
/// because the discrete-event engine runs one fiber at a time).
struct ClientOut {
  std::uint64_t acked = 0;
  std::uint64_t rejected = 0;
  std::uint64_t restores_ok = 0;
  std::uint64_t lost = 0;
  std::uint64_t bytes_acked = 0;
  std::uint64_t bytes_restored = 0;
  std::uint64_t restore_retries = 0;
  std::uint64_t digest = 0;
};

struct ServerOut {
  std::uint64_t evictions = 0;
  std::uint64_t supersedes = 0;
  std::uint64_t repacks = 0;
  std::uint64_t extents_moved = 0;
};

/// Everything the SPMD lambda shares; symmetric pointers are per-PE.
struct Shared {
  const CheckpointConfig* cfg;
  int servers;
  int num_clients;
  std::vector<ClientOut>* client_out;
  std::vector<ServerOut>* server_out;
};

struct SymArrays {
  std::byte* arena;
  ReqSlot* req;
  RespSlot* resp;
  DirEntry* dir;
};

/// Collective symmetric setup, identical sequence on every PE.
SymArrays setup_symmetric(core::Ctx& ctx, const Shared& sh) {
  SymArrays a;
  a.arena = static_cast<std::byte*>(
      ctx.shmalloc(sh.cfg->pool_bytes, core::Domain::kPmem));
  a.req = static_cast<ReqSlot*>(ctx.shmalloc(
      sizeof(ReqSlot) * static_cast<std::size_t>(sh.num_clients)));
  a.resp = static_cast<RespSlot*>(ctx.shmalloc(
      sizeof(RespSlot) * 2 * static_cast<std::size_t>(sh.num_clients)));
  a.dir = static_cast<DirEntry*>(ctx.shmalloc(
      sizeof(DirEntry) * static_cast<std::size_t>(sh.num_clients) *
      static_cast<std::size_t>(sh.cfg->dir_slots)));
  return a;
}

// ---- server ----------------------------------------------------------------

class Server {
 public:
  Server(core::Ctx& ctx, const Shared& sh, const SymArrays& a)
      : ctx_(ctx), sh_(sh), a_(a),
        pool_(sh.cfg->pool_bytes, sh.cfg->chunk_bytes),
        last_seq_(static_cast<std::size_t>(sh.num_clients), 0),
        resp_seq_(static_cast<std::size_t>(sh.num_clients) * 2, 0),
        out_(&(*sh.server_out)[static_cast<std::size_t>(ctx.my_pe())]) {
    replica_ = (ctx_.my_pe() + 1) % sh_.servers;
    for (int ci = 0; ci < sh_.num_clients; ++ci) {
      if (ci % sh_.servers == ctx_.my_pe()) ++my_clients_;
    }
  }

  void run() {
    int done = 0;
    while (done < my_clients_) {
      ctx_.wait_for([&] { return scan_ready(); });
      // Serve every ready request, in client order — the scan order is
      // deterministic because virtual-time delivery order is.
      for (int ci = 0; ci < sh_.num_clients; ++ci) {
        if (ci % sh_.servers != ctx_.my_pe()) continue;
        auto i = static_cast<std::size_t>(ci);
        while (a_.req[i].seq > last_seq_[i]) {
          ++last_seq_[i];
          ReqSlot rq;
          std::memcpy(&rq, &a_.req[i], sizeof(rq));
          switch (rq.kind) {
            case kKindRequest: handle_request(ci, rq); break;
            case kKindCommit: handle_commit(ci, rq); break;
            case kKindDone: ++done; break;
            default:
              throw core::ShmemError("checkpoint server: bad request kind");
          }
        }
      }
    }
  }

 private:
  bool scan_ready() {
    for (int ci = 0; ci < sh_.num_clients; ++ci) {
      if (ci % sh_.servers != ctx_.my_pe()) continue;
      if (a_.req[static_cast<std::size_t>(ci)].seq >
          last_seq_[static_cast<std::size_t>(ci)]) {
        return true;
      }
    }
    return false;
  }

  void respond(int ci, int which, std::uint64_t status, std::uint64_t offset) {
    RespSlot r;
    r.status = status;
    r.offset = offset;
    auto slot = static_cast<std::size_t>(ci) * 2 + static_cast<std::size_t>(which);
    r.seq = ++resp_seq_[slot];
    RespSlot* dst = a_.resp + slot;
    ctx_.put_signal(dst, &r, offsetof(RespSlot, seq), &dst->seq, r.seq,
                    sh_.servers + ci);
  }

  DirEntry& dir_entry(int ci, std::uint64_t version) {
    auto slot = static_cast<std::size_t>(ci) *
                    static_cast<std::size_t>(sh_.cfg->dir_slots) +
                static_cast<std::size_t>(version %
                                         static_cast<std::uint64_t>(
                                             sh_.cfg->dir_slots));
    return a_.dir[slot];
  }

  /// Push this server's local copy of the entry to the replica and wait for
  /// remote completion, so later local mutations cannot be observed first.
  void publish_entry(DirEntry& e) {
    ctx_.putmem(&e, &e, sizeof(DirEntry), replica_);
    ctx_.quiet();
  }

  /// Mark the entry unstable on the replica *before* its payload moves.
  void publish_odd_gen(DirEntry& e) {
    ctx_.putmem(&e.gen, &e.gen, sizeof(e.gen), replica_);
    ctx_.quiet();
  }

  /// Slide the window of the arena that frees `need` bytes by moving the
  /// fewest (PmemPool::repack). Returns the number of extents moved, 0 when
  /// no window fits.
  std::size_t do_repack(std::size_t need) {
    auto moved = pool_.repack(
        need,
        [&](std::uint64_t key, std::size_t old_off, std::size_t new_off,
            std::size_t bytes) {
          // Every movable extent is committed, so it has a live dir entry.
          int ci = static_cast<int>(key >> 32);
          std::uint64_t version = key & 0xffffffffULL;
          DirEntry& e = dir_entry(ci, version);
          e.gen += 1;  // odd: one-sided readers must retry
          publish_odd_gen(e);
          // A restore get in flight against old_off now races this move, and
          // so does one against the old bytes of an extent this repack moved
          // earlier, which new_off may overlap. That extent's gen already
          // changed, so its reader retries; this one's even-gen publish
          // below is what lets its own reader detect the move.
          std::memmove(a_.arena + new_off, a_.arena + old_off, bytes);
          ctx_.proc().delay(sim::Duration::ns(
              static_cast<std::int64_t>(bytes / 16)));  // ~16 B/ns host copy
          e.offset = new_off;
          e.gen += 1;  // even: stable again
          publish_entry(e);
          ++out_->extents_moved;
        },
        [&](std::uint64_t key) { return pending_keys_.count(key) != 0; });
    if (moved > 0) {
      ++out_->repacks;
      ctx_.runtime().metrics().counter("ckpt/repacks").add();
    }
    return moved;
  }

  /// Evict the least-recently-acked checkpoint that is not some client's
  /// latest acknowledged version. Returns false when nothing is evictable.
  bool evict_one() {
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      std::uint64_t key = *it;
      int ci = static_cast<int>(key >> 32);
      std::uint64_t version = key & 0xffffffffULL;
      auto latest = latest_acked_.find(ci);
      if (latest != latest_acked_.end() && latest->second == version) continue;
      DirEntry& e = dir_entry(ci, version);
      e.gen += 2;  // stays even: the entry flips atomically to "gone"
      e.state = 0;
      publish_entry(e);
      pool_.release(key);
      lru_.erase(it);
      ++out_->evictions;
      ctx_.runtime().metrics().counter("ckpt/evictions").add();
      return true;
    }
    return false;
  }

  void handle_request(int ci, const ReqSlot& rq) {
    const std::uint64_t key = make_key(ci, rq.version);
    const std::size_t need = pool_.rounded(rq.bytes);
    std::optional<Extent> ext;
    for (;;) {
      ext = pool_.allocate(key, rq.bytes);
      if (ext) break;
      // Fragmented, not full: compaction may recover a large-enough run.
      if (pool_.free_bytes() >= need && do_repack(need) > 0) continue;
      if (evict_one()) continue;
      break;  // nothing left to evict or compact — reject
    }
    if (!ext) {
      ctx_.runtime().metrics().counter("ckpt/rejects").add();
      respond(ci, 0, kStatusReject, 0);
      return;
    }
    Pending p;
    p.version = rq.version;
    p.bytes = rq.bytes;
    p.offset = ext->offset;
    pending_[ci] = p;
    pending_keys_.insert(key);
    respond(ci, 0, kStatusGrant, ext->offset);
  }

  void handle_commit(int ci, const ReqSlot& rq) {
    auto it = pending_.find(ci);
    if (it == pending_.end() || it->second.version != rq.version) {
      throw core::ShmemError("checkpoint server: commit without grant");
    }
    Pending p = it->second;
    pending_.erase(it);
    const std::uint64_t key = make_key(ci, p.version);
    pending_keys_.erase(key);
    // The client's quiet() before the commit guarantees the payload is fully
    // delivered; a sum mismatch here would mean the transport lost or
    // corrupted acknowledged bytes — surface it, never ack it.
    std::uint64_t sum = xxh64(a_.arena + p.offset, p.bytes);
    if (sum != rq.sum) {
      throw core::ShmemError(
          "checkpoint server: payload sum mismatch at commit (client " +
          std::to_string(ci) + " version " + std::to_string(p.version) + ")");
    }
    // If this version's dir slot still holds an older live version, it is
    // displaced now — only at commit time, so the older checkpoint stayed
    // restorable until the new one became durable.
    DirEntry& e = dir_entry(ci, p.version);
    const std::uint64_t displaced = e.state == 1 ? make_key(ci, e.version) : 0;
    e.gen += 2;  // even -> even: readers see old-or-new, never torn
    e.version = p.version;
    e.state = 1;
    e.server = static_cast<std::uint64_t>(ctx_.my_pe());
    e.offset = p.offset;
    e.bytes = p.bytes;
    e.sum = sum;
    publish_entry(e);
    if (displaced != 0) {
      // The older version in this dir slot is no longer reachable; free its
      // extent (it may already have been LRU-evicted).
      if (pool_.release(displaced)) {
        lru_.remove(displaced);
        ++out_->supersedes;
      }
    }
    latest_acked_[ci] = p.version;
    lru_.push_back(key);
    respond(ci, 1, kStatusAck, 0);
  }

  struct Pending {
    std::uint64_t version = 0;
    std::size_t bytes = 0;
    std::size_t offset = 0;
  };

  core::Ctx& ctx_;
  const Shared& sh_;
  SymArrays a_;
  PmemPool pool_;
  int replica_;
  int my_clients_ = 0;
  std::vector<std::uint64_t> last_seq_;
  std::vector<std::uint64_t> resp_seq_;
  std::map<int, Pending> pending_;
  std::set<std::uint64_t> pending_keys_;
  std::map<int, std::uint64_t> latest_acked_;
  std::list<std::uint64_t> lru_;
  ServerOut* out_;
};

// ---- client ----------------------------------------------------------------

class Client {
 public:
  Client(core::Ctx& ctx, const Shared& sh, const SymArrays& a)
      : ctx_(ctx), sh_(sh), a_(a),
        ci_(ctx.my_pe() - sh.servers),
        out_(&(*sh.client_out)[static_cast<std::size_t>(ctx.my_pe() -
                                                        sh.servers)]) {
    home_ = ci_ % sh_.servers;
    replica_ = (home_ + 1) % sh_.servers;
    // Local (non-symmetric) GPU buffers standing in for model state: the
    // checkpoint source and the restore destination.
    const std::size_t cap = sh_.cfg->traffic.max_bytes;
    dev_src_ = static_cast<std::byte*>(ctx_.cuda_malloc(cap));
    dev_rst_ = static_cast<std::byte*>(ctx_.cuda_malloc(cap));
    host_.reserve(cap);
    verify_.reserve(cap);
  }

  void run() {
    auto reqs = make_open_loop(sh_.cfg->traffic, ci_);
    const sim::Time t0 = ctx_.now();
    for (const Request& r : reqs) {
      sim::Time arrival = t0 + sim::Duration::us(r.at_us);
      if (ctx_.now() < arrival) ctx_.proc().delay(arrival - ctx_.now());
      // Open-loop latency: measured from the scheduled arrival, so time
      // spent queued behind this client's own previous request counts.
      if (r.restore && latest_version_ != 0) {
        do_restore(arrival);
      } else {
        do_checkpoint(arrival, r.bytes != 0 ? r.bytes
                                            : sh_.cfg->traffic.min_bytes);
      }
    }
    send(kKindDone, 0, 0, 0);
  }

 private:
  void send(std::uint64_t kind, std::uint64_t version, std::uint64_t bytes,
            std::uint64_t sum) {
    ReqSlot rq;
    rq.kind = kind;
    rq.version = version;
    rq.bytes = bytes;
    rq.sum = sum;
    rq.seq = ++req_seq_;
    ReqSlot* dst = a_.req + ci_;
    ctx_.put_signal(dst, &rq, offsetof(ReqSlot, seq), &dst->seq, rq.seq, home_);
  }

  /// Await the next response in `which` (0 grant, 1 ack) and copy it out.
  RespSlot await_resp(int which) {
    auto slot = static_cast<std::size_t>(ci_) * 2 +
                static_cast<std::size_t>(which);
    std::uint64_t expect = ++resp_seen_[which];
    ctx_.wait_until(&a_.resp[slot].seq, core::Cmp::kEq, expect);
    RespSlot r;
    std::memcpy(&r, &a_.resp[slot], sizeof(r));
    return r;
  }

  void fold(std::uint64_t kind, std::uint64_t version, std::uint64_t sum,
            std::uint64_t latency_ns) {
    out_->digest = mix64(out_->digest ^ mix64(kind * 0x9e3779b97f4a7c15ULL +
                                              version) ^
                         mix64(sum) ^ mix64(latency_ns + 1));
  }

  void do_checkpoint(sim::Time arrival, std::size_t bytes) {
    const std::uint64_t version = ++next_version_;
    fill_model_state(sh_.cfg->traffic.seed, ci_, version, host_, bytes);
    const std::uint64_t sum = xxh64(host_.data(), bytes);
    ctx_.cuda_memcpy(dev_src_, host_.data(), bytes);  // model state on GPU
    send(kKindRequest, version, bytes, 0);
    RespSlot grant = await_resp(0);
    if (grant.status == kStatusReject) {
      ++out_->rejected;
      --next_version_;  // the version number was never materialized
      fold(9, version, 0, 0);
      return;
    }
    // One-sided payload write straight from GPU memory into the home
    // server's pmem arena; quiet() is the durability point — after it, the
    // bytes (and any fault-plan replays) are remotely complete.
    ctx_.putmem(a_.arena + grant.offset, dev_src_, bytes, home_);
    ctx_.quiet();
    send(kKindCommit, version, bytes, sum);
    RespSlot ack = await_resp(1);
    if (ack.status != kStatusAck) {
      throw core::ShmemError("checkpoint client: commit not acked");
    }
    auto lat = static_cast<std::uint64_t>((ctx_.now() - arrival).count_ns());
    ctx_.runtime().metrics().histogram("ckpt/checkpoint_latency_ns").record(lat);
    ++out_->acked;
    out_->bytes_acked += bytes;
    latest_version_ = version;
    latest_bytes_ = bytes;
    latest_sum_ = sum;
    fold(1, version, sum, lat);
  }

  void do_restore(sim::Time arrival) {
    const std::uint64_t version = latest_version_;
    const auto slot = static_cast<std::size_t>(ci_) *
                          static_cast<std::size_t>(sh_.cfg->dir_slots) +
                      static_cast<std::size_t>(
                          version %
                          static_cast<std::uint64_t>(sh_.cfg->dir_slots));
    DirEntry* esym = a_.dir + slot;
    bool ok = false;
    DirEntry e{};
    for (int attempt = 0; attempt < 64; ++attempt) {
      ctx_.getmem(&e, esym, sizeof(e), replica_);
      if (e.gen % 2 != 0) {  // repack in progress: back off and re-read
        ++out_->restore_retries;
        ctx_.proc().delay(sim::Duration::us(2));
        continue;
      }
      if (e.state != 1 || e.version != version) break;  // lost: never evictable
      ctx_.getmem(dev_rst_, a_.arena + e.offset,
                  static_cast<std::size_t>(e.bytes),
                  static_cast<int>(e.server));
      DirEntry e2{};
      ctx_.getmem(&e2, esym, sizeof(e2), replica_);
      if (e2.gen != e.gen) {  // the payload moved underneath the get
        ++out_->restore_retries;
        continue;
      }
      ok = true;
      break;
    }
    std::uint64_t lat = 0;
    if (ok) {
      verify_.resize(static_cast<std::size_t>(e.bytes));
      ctx_.cuda_memcpy(verify_.data(), dev_rst_,
                       static_cast<std::size_t>(e.bytes));
      std::uint64_t sum =
          xxh64(verify_.data(), static_cast<std::size_t>(e.bytes));
      ok = sum == e.sum && sum == latest_sum_ && e.bytes == latest_bytes_;
      if (ok && sh_.cfg->verify_restores) {
        fill_model_state(sh_.cfg->traffic.seed, ci_, version, host_,
                         latest_bytes_);
        ok = std::memcmp(verify_.data(), host_.data(), latest_bytes_) == 0;
      }
    }
    if (ok) {
      lat = static_cast<std::uint64_t>((ctx_.now() - arrival).count_ns());
      ctx_.runtime().metrics().histogram("ckpt/restore_latency_ns").record(lat);
      ++out_->restores_ok;
      out_->bytes_restored += latest_bytes_;
    } else {
      // An acknowledged latest version must always restore byte-identical;
      // anything else is a lost checkpoint.
      ++out_->lost;
    }
    fold(2, version, latest_sum_, lat);
  }

  core::Ctx& ctx_;
  const Shared& sh_;
  SymArrays a_;
  int ci_;
  int home_;
  int replica_;
  std::byte* dev_src_;
  std::byte* dev_rst_;
  std::vector<std::byte> host_;
  std::vector<std::byte> verify_;
  std::uint64_t req_seq_ = 0;
  std::uint64_t resp_seen_[2] = {0, 0};
  std::uint64_t next_version_ = 0;
  std::uint64_t latest_version_ = 0;
  std::size_t latest_bytes_ = 0;
  std::uint64_t latest_sum_ = 0;
  ClientOut* out_;
};

}  // namespace

CheckpointResult run_checkpoint_service(const hw::ClusterConfig& cluster,
                                        const core::RuntimeOptions& opts,
                                        const CheckpointConfig& cfg) {
  const int np = cluster.num_nodes * cluster.pes_per_node;
  if (cfg.num_servers < 2) {
    throw core::ShmemError(
        "checkpoint service: need >= 2 servers (directory replication)");
  }
  if (np <= cfg.num_servers) {
    throw core::ShmemError("checkpoint service: no client PEs");
  }
  if (opts.pmem_heap_bytes < cfg.pool_bytes) {
    throw core::ShmemError(
        "checkpoint service: pool_bytes exceeds the pmem heap "
        "(set RuntimeOptions::pmem_heap_bytes / GDRSHMEM_PMEM_HEAP)");
  }
  if (cfg.dir_slots < 1) {
    throw core::ShmemError("checkpoint service: dir_slots must be >= 1");
  }

  std::vector<ClientOut> client_out(
      static_cast<std::size_t>(np - cfg.num_servers));
  std::vector<ServerOut> server_out(static_cast<std::size_t>(cfg.num_servers));
  Shared sh;
  sh.cfg = &cfg;
  sh.servers = cfg.num_servers;
  sh.num_clients = np - cfg.num_servers;
  sh.client_out = &client_out;
  sh.server_out = &server_out;

  core::Runtime rt(cluster, opts);
  rt.run([&](core::Ctx& ctx) {
    SymArrays a = setup_symmetric(ctx, sh);
    if (ctx.my_pe() < sh.servers) {
      Server server(ctx, sh, a);
      ctx.barrier_all();  // traffic epoch starts here on every PE
      server.run();
    } else {
      Client client(ctx, sh, a);
      ctx.barrier_all();
      client.run();
    }
    ctx.barrier_all();
  });

  CheckpointResult res;
  for (std::size_t i = 0; i < client_out.size(); ++i) {
    const ClientOut& c = client_out[i];
    res.checkpoints_acked += c.acked;
    res.checkpoints_rejected += c.rejected;
    res.restores_ok += c.restores_ok;
    res.lost_acked += c.lost;
    res.bytes_acked += c.bytes_acked;
    res.bytes_restored += c.bytes_restored;
    res.restore_retries += c.restore_retries;
    res.digest ^= mix64(c.digest + i + 1);
  }
  for (const ServerOut& s : server_out) {
    res.evictions += s.evictions;
    res.supersedes += s.supersedes;
    res.repacks += s.repacks;
    res.extents_moved += s.extents_moved;
  }
  res.makespan_ms = rt.engine().now().to_ms();
  if (res.makespan_ms > 0) {
    res.goodput_mbps = static_cast<double>(res.bytes_acked) /
                       (res.makespan_ms * 1e-3) / 1e6;
  }
  const core::Histogram& ch =
      rt.metrics().histogram("ckpt/checkpoint_latency_ns");
  res.ckpt_p50_ns = ch.percentile(0.50);
  res.ckpt_p99_ns = ch.percentile(0.99);
  res.ckpt_p999_ns = ch.percentile(0.999);
  const core::Histogram& rh = rt.metrics().histogram("ckpt/restore_latency_ns");
  res.restore_p50_ns = rh.percentile(0.50);
  res.restore_p99_ns = rh.percentile(0.99);
  res.restore_p999_ns = rh.percentile(0.999);
  return res;
}

}  // namespace gdrshmem::apps::ckpt
