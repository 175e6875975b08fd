#include "ib/verbs.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

namespace gdrshmem::ib {

using cudart::MemSpace;
using sim::Completion;
using sim::CompletionPtr;
using sim::Duration;
using sim::FaultEvent;
using sim::Path;
using sim::Time;

// ---------------------------------------------------------------------------
// RegistrationCache

RegistrationCache::Entry* RegistrationCache::find(int pe, const void* addr,
                                                  std::size_t len) {
  auto pit = ranges_.find(pe);
  if (pit == ranges_.end()) return nullptr;
  PeRanges& pr = pit->second;
  auto key = reinterpret_cast<std::uintptr_t>(addr);
  // The nearest base at or below addr covers the range in the common case.
  // Ranges may nest, so a miss there walks down through every base the
  // longest range could reach from.
  for (auto it = pr.ranges.upper_bound(key); it != pr.ranges.begin();) {
    --it;
    if (key - it->first > pr.max_len) break;
    if (key + len <= it->first + it->second.len) return &it->second;
  }
  return nullptr;
}

const RegistrationCache::Entry* RegistrationCache::find(int pe, const void* addr,
                                                        std::size_t len) const {
  return const_cast<RegistrationCache*>(this)->find(pe, addr, len);
}

bool RegistrationCache::covered(int pe, const void* addr, std::size_t len) const {
  return find(pe, addr, len) != nullptr;
}

void RegistrationCache::register_at_init(int pe, const void* addr, std::size_t len) {
  PeRanges& pr = ranges_[pe];
  auto [it, inserted] = pr.ranges.try_emplace(reinterpret_cast<std::uintptr_t>(addr));
  Entry& e = it->second;
  if (!inserted) touch(pr, e, /*pin=*/true);
  e.len = len;
  e.pinned = true;
  pr.max_len = std::max(pr.max_len, len);
}

void RegistrationCache::touch(PeRanges& pr, Entry& e, bool pin) {
  if (e.pinned) return;
  if (pin) {
    pr.lru.erase(e.lru_pos);
    e.pinned = true;
  } else {
    pr.lru.splice(pr.lru.end(), pr.lru, e.lru_pos);
  }
}

void RegistrationCache::release(int pe, const void* addr) {
  PeRanges& pr = ranges_[pe];
  auto it = pr.ranges.find(reinterpret_cast<std::uintptr_t>(addr));
  if (it == pr.ranges.end()) return;
  if (!it->second.pinned) pr.lru.erase(it->second.lru_pos);
  pr.ranges.erase(it);
}

Duration RegistrationCache::registration_cost(std::size_t len) const {
  double mb = static_cast<double>(len) / 1e6;
  return Duration::us(params_.mr_register_base_us +
                      params_.mr_register_per_mb_us * mb);
}

void RegistrationCache::insert(PeRanges& pr, const void* addr, std::size_t len,
                               bool pinned) {
  auto key = reinterpret_cast<std::uintptr_t>(addr);
  auto [it, inserted] = pr.ranges.try_emplace(key);
  Entry& e = it->second;
  pr.max_len = std::max(pr.max_len, len);
  if (!inserted) {
    // Grow-in-place: a registration at this base exists but is too short to
    // cover [addr, addr+len). Extending it must keep a pinned entry pinned
    // and must not mint a second LRU node for a dynamic one — the stale node
    // would inflate lru.size(), shrink effective capacity, and eventually
    // evict through an orphaned iterator. A dynamic entry keeps its single
    // node, bumped to most-recent, unless this registration pins it.
    ++grows_;
    e.len = std::max(e.len, len);
    touch(pr, e, pinned);
    return;
  }
  e.len = len;
  e.pinned = pinned;
  if (pinned) return;
  e.lru_pos = pr.lru.insert(pr.lru.end(), key);
  while (capacity_ != 0 && pr.lru.size() > capacity_) {
    pr.ranges.erase(pr.lru.front());
    pr.lru.pop_front();
    ++evictions_;
  }
}

void RegistrationCache::get_or_register(sim::Process& proc, int pe,
                                        const void* addr, std::size_t len,
                                        bool pinned) {
  PeRanges& pr = ranges_[pe];
  if (Entry* e = find(pe, addr, len)) {
    ++hits_;
    touch(pr, *e, pinned);
    return;
  }
  ++misses_;
  proc.delay(registration_cost(len));
  insert(pr, addr, len, pinned);
}

void RegistrationCache::register_async(int pe, const void* addr,
                                       std::size_t len) {
  PeRanges& pr = ranges_[pe];
  auto key = reinterpret_cast<std::uintptr_t>(addr);
  for (const auto& [base, n] : pr.registering) {
    if (base <= key && key + len <= base + n) return;
  }
  ++misses_;
  pr.helper_free =
      sim::max(eng_.now(), pr.helper_free) + registration_cost(len);
  pr.registering.emplace_back(key, len);
  eng_.schedule_at(pr.helper_free, [this, pe, addr, len] {
    PeRanges& r = ranges_[pe];
    r.registering.pop_front();
    if (find(pe, addr, len) == nullptr) insert(r, addr, len, /*pinned=*/false);
  });
}

// ---------------------------------------------------------------------------
// Verbs

Verbs::Verbs(sim::Engine& eng, hw::Cluster& cluster, cudart::CudaRuntime& cuda)
    : eng_(eng), cluster_(cluster), cuda_(cuda),
      reg_cache_(eng, cluster.params()) {}

Path Verbs::local_leg(int pe, const void* buf, hw::P2pDir dir, int hca) {
  hw::PePlacement pl = cluster_.placement(pe);
  if (hca < 0) hca = pl.hca;
  cudart::PtrAttr a = cuda_.attributes(buf);
  if (a.space == MemSpace::kDevice) {
    if (a.node != pl.node) {
      throw IbError("buffer is device memory on a different node than its PE");
    }
    return cluster_.gdr_leg(pl.node, hca, a.device, dir);
  }
  return cluster_.hca_host(pl.node, hca);
}

void Verbs::pre_post(sim::Process& proc, int dst_pe, const void* raddr,
                     std::size_t n) {
  if (!reg_cache_.covered(dst_pe, raddr, n)) {
    throw IbError("remote access fault: target range not registered (rkey)");
  }
  ++ops_posted_;
  proc.delay(Duration::us(cluster_.params().ib_post_overhead_us));
}

void Verbs::register_local(sim::Process& proc, int pe, const void* buf,
                           std::size_t n) {
  bool small_host = n <= kInlineBytes &&
                    cuda_.attributes(buf).space != MemSpace::kDevice;
  if (!small_host) reg_cache_.get_or_register(proc, pe, buf, n);
}

Duration Verbs::ack_latency(int src_pe, int dst_pe) const {
  const auto& p = cluster_.params();
  if (cluster_.same_node(src_pe, dst_pe)) {
    // Loopback: the ACK never leaves the adapter.
    return Duration::us(p.hca_processing_us);
  }
  return Duration::us(2 * p.wire_latency_us + p.switch_latency_us +
                      p.hca_processing_us);
}

Duration Verbs::retry_delay(int attempt) const {
  const auto& p = cluster_.params();
  int exp = std::min(attempt - 1, 16);
  double t = p.ib_retry_timeout_us * static_cast<double>(1u << exp);
  return Duration::us(std::min(t, p.ib_retry_timeout_cap_us));
}

bool Verbs::attempt_fails(int src_pe, int dst_pe, bool atomic) {
  // Loopback traffic turns around inside the adapter: no cable, no flap,
  // no wire error — and no randomness consumed.
  if (cluster_.same_node(src_pe, dst_pe)) return false;
  int s = cluster_.placement(src_pe).node;
  int d = cluster_.placement(dst_pe).node;
  return atomic ? faults_->atomic_attempt_fails(s, d, eng_.now())
                : faults_->wire_attempt_fails(s, d, eng_.now());
}

void Verbs::run_attempts(int src_pe, int dst_pe, bool atomic, bool unlimited,
                         int attempt, CompletionPtr comp,
                         std::shared_ptr<std::function<void()>> transmit) {
  if (!attempt_fails(src_pe, dst_pe, atomic)) {
    (*transmit)();
    return;
  }
  if (!unlimited && attempt > cluster_.params().ib_retry_count) {
    // Retry envelope exhausted: the WQE is flushed and the CQ reports an
    // error after the final timeout. Software (tier 2) takes over.
    faults_->on_event(FaultEvent::kCompletionError, src_pe);
    eng_.schedule_after(retry_delay(attempt), [this, comp, src_pe] {
      comp->fire_error();
      delivered(src_pe);
    });
    return;
  }
  faults_->on_event(FaultEvent::kRetransmit, src_pe);
  eng_.schedule_after(
      retry_delay(attempt),
      [this, src_pe, dst_pe, atomic, unlimited, attempt, comp, transmit] {
        run_attempts(src_pe, dst_pe, atomic, unlimited, attempt + 1, comp,
                     transmit);
      });
}

template <typename Transmit>
CompletionPtr Verbs::submit(int src_pe, int dst_pe, bool atomic, bool unlimited,
                            Transmit transmit) {
  auto comp = std::make_shared<Completion>();
  if (!fault_active()) {
    transmit(comp);
    return comp;
  }
  run_attempts(src_pe, dst_pe, atomic, unlimited, 1, comp,
               std::make_shared<std::function<void()>>(
                   [comp, transmit = std::move(transmit)] { transmit(comp); }));
  return comp;
}

CompletionPtr Verbs::rdma_write(sim::Process& proc, int src_pe, const void* lbuf,
                                int dst_pe, void* rbuf, std::size_t n,
                                Rail rail, SegmentOpts seg) {
  pre_post(proc, dst_pe, rbuf, n);
  register_local(proc, src_pe, lbuf, n);
  auto transmit = [this, src_pe, lbuf, dst_pe, rbuf, n, rail,
                   seg = std::move(seg)](const CompletionPtr& comp) {
    hw::PePlacement src = cluster_.placement(src_pe);
    hw::PePlacement dst = cluster_.placement(dst_pe);
    int shca = rail.src_hca >= 0 ? rail.src_hca : src.hca;
    int dhca = rail.dst_hca >= 0 ? rail.dst_hca : dst.hca;
    // Source HCA *reads* the local buffer, target side *writes* the remote
    // one.
    Path path =
        sim::combine({local_leg(src_pe, lbuf, hw::P2pDir::kRead, shca),
                      cluster_.wire(src.node, shca, dst.node, dhca),
                      local_leg(dst_pe, rbuf, hw::P2pDir::kWrite, dhca)});
    Time data_at_target = path.schedule(eng_.now(), n) + seg.jitter;
    eng_.schedule_at(data_at_target, [this, dst_pe, lbuf, rbuf, n,
                                      on_del = seg.on_delivered] {
      std::memcpy(rbuf, lbuf, n);
      if (on_del) on_del();
      delivered(dst_pe);
    });
    eng_.schedule_at(data_at_target + ack_latency(src_pe, dst_pe),
                     [this, comp, src_pe] {
                       comp->fire();
                       delivered(src_pe);  // CQ entry lands at the source
                     });
  };
  return submit(src_pe, dst_pe, /*atomic=*/false, /*unlimited=*/false,
                std::move(transmit));
}

CompletionPtr Verbs::rdma_read(sim::Process& proc, int src_pe, void* lbuf,
                               int dst_pe, const void* rbuf, std::size_t n,
                               Rail rail, SegmentOpts seg) {
  pre_post(proc, dst_pe, rbuf, n);
  register_local(proc, src_pe, lbuf, n);
  auto transmit = [this, src_pe, lbuf, dst_pe, rbuf, n, rail,
                   seg = std::move(seg)](const CompletionPtr& comp) {
    hw::PePlacement src = cluster_.placement(src_pe);
    hw::PePlacement dst = cluster_.placement(dst_pe);
    int shca = rail.src_hca >= 0 ? rail.src_hca : src.hca;
    int dhca = rail.dst_hca >= 0 ? rail.dst_hca : dst.hca;
    // Request travels to the target, then data streams back: target side
    // reads its memory (GDR read if on GPU), initiator side writes into
    // lbuf.
    Path request = cluster_.wire(src.node, shca, dst.node, dhca);
    Path back =
        sim::combine({local_leg(dst_pe, rbuf, hw::P2pDir::kRead, dhca),
                      cluster_.wire(dst.node, dhca, src.node, shca),
                      local_leg(src_pe, lbuf, hw::P2pDir::kWrite, shca)});
    Time request_at_target = request.schedule(eng_.now(), 0);
    // Response segments ride the jittered path too: the reorder/tracking
    // buffer for a read lives at the *initiator*, where the data lands.
    Time data_local = back.schedule(request_at_target, n) + seg.jitter;
    eng_.schedule_at(data_local, [this, comp, src_pe, lbuf, rbuf, n,
                                  on_del = seg.on_delivered] {
      std::memcpy(lbuf, rbuf, n);
      if (on_del) on_del();
      delivered(src_pe);
      comp->fire();
    });
  };
  return submit(src_pe, dst_pe, /*atomic=*/false, /*unlimited=*/false,
                std::move(transmit));
}

CompletionPtr Verbs::post_send(sim::Process& proc, int src_pe, int dst_pe,
                               std::size_t n, std::function<void()> deliver) {
  ++ops_posted_;
  proc.delay(Duration::us(cluster_.params().ib_post_overhead_us));
  auto transmit = [this, src_pe, dst_pe, n,
                   deliver = std::move(deliver)](const CompletionPtr& comp) {
    hw::PePlacement src = cluster_.placement(src_pe);
    hw::PePlacement dst = cluster_.placement(dst_pe);
    // Control messages live in host memory on both sides.
    Path path =
        sim::combine({cluster_.hca_host(src.node, src.hca),
                      cluster_.wire(src.node, src.hca, dst.node, dst.hca),
                      cluster_.hca_host(dst.node, dst.hca)});
    Time at_target = path.schedule(eng_.now(), n);
    eng_.schedule_at(at_target, [deliver] { deliver(); });
    eng_.schedule_at(at_target + ack_latency(src_pe, dst_pe),
                     [this, comp, src_pe] {
                       comp->fire();
                       delivered(src_pe);
                     });
  };
  // Control messages ride the reliable channel: the HCA retransmits until
  // the message gets through (capped-exponential spacing), so the protocol
  // state machines above never see a lost ctrl message — only delay.
  return submit(src_pe, dst_pe, /*atomic=*/false, /*unlimited=*/true,
                std::move(transmit));
}

CompletionPtr Verbs::atomic(sim::Process& proc, int src_pe, int dst_pe,
                            std::uint64_t* raddr, Amo amo,
                            std::uint64_t* result) {
  pre_post(proc, dst_pe, raddr, sizeof(std::uint64_t));
  auto transmit = [this, src_pe, dst_pe, raddr, amo,
                   result](const CompletionPtr& comp) {
    hw::PePlacement src = cluster_.placement(src_pe);
    hw::PePlacement dst = cluster_.placement(dst_pe);
    const auto& p = cluster_.params();
    // Request to the target HCA, RMW over PCIe (read + write the word), then
    // the old value rides the ACK back.
    Path there = cluster_.wire(src.node, src.hca, dst.node, dst.hca);
    Time at_hca = there.schedule(eng_.now(), sizeof(std::uint64_t));
    Duration rmw_extra = Duration::us(p.ib_atomic_exec_us);
    Path rd, wr;
    cudart::PtrAttr a = cuda_.attributes(raddr);
    if (a.space == MemSpace::kDevice && !cluster_.p2p_available(dst.node)) {
      // P2P revoked: the HCA can no longer RMW GPU BAR memory directly. A
      // host agent bounces the word through host memory (CPU-assisted
      // atomic) — correct, but it pays two copy-engine launches.
      rd = cluster_.hca_host(dst.node, dst.hca);
      wr = cluster_.hca_host(dst.node, dst.hca);
      rmw_extra = rmw_extra + Duration::us(2 * p.cuda_copy_launch_us);
      if (faults_) faults_->on_event(FaultEvent::kGdrFallback, dst_pe);
    } else {
      rd = local_leg(dst_pe, raddr, hw::P2pDir::kRead);
      wr = local_leg(dst_pe, raddr, hw::P2pDir::kWrite);
    }
    Time done_rmw = at_hca + rmw_extra + rd.cost(sizeof(std::uint64_t)) +
                    wr.cost(sizeof(std::uint64_t));
    Path backwire = cluster_.wire(dst.node, dst.hca, src.node, src.hca);
    Time reply_local = backwire.schedule(done_rmw, sizeof(std::uint64_t));
    eng_.schedule_at(done_rmw, [this, dst_pe, raddr, amo, result] {
      *result = amo.apply(*raddr);
      delivered(dst_pe);
    });
    eng_.schedule_at(reply_local, [this, comp, src_pe] {
      comp->fire();
      delivered(src_pe);
    });
  };
  // A failed atomic attempt models the request lost *before* the RMW
  // executed, so the hardware retransmit (and any software replay) cannot
  // double-apply it.
  return submit(src_pe, dst_pe, /*atomic=*/true, /*unlimited=*/false,
                std::move(transmit));
}

}  // namespace gdrshmem::ib
