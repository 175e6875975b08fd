#include "core/ctx.hpp"

#include <algorithm>
#include <cstring>

namespace gdrshmem::core {

using sim::Duration;

// ---------------------------------------------------------------------------
// Construction

Ctx::Ctx(Runtime& rt, int pe)
    : rt_(&rt),
      pe_(pe),
      staging_ring_(rt, pe),
      stream_(rt.cluster().placement(pe).node, rt.cluster().placement(pe).gpu),
      coll_layout_(coll::SyncLayout::make(rt.num_pes(), rt.tuning(),
                                          rt.options().host_heap_bytes)),
      world_team_(0, 1, rt.num_pes(), pe, /*slot=*/0) {
  // Reserve the collectives sync pool — identical first allocation on every
  // PE. The heap is zero-initialized, so every flag starts below any
  // generation-tagged value the engine will ever wait for.
  coll_pool_ = static_cast<std::byte*>(
      rt_->heap(pe_, Domain::kHost).allocate(coll_layout_.pool_bytes()));
}

Ctx::~Ctx() = default;

sim::Process& Ctx::proc() {
  if (proc_ == nullptr) {
    throw ShmemError("OpenSHMEM calls are only valid inside Runtime::run");
  }
  return *proc_;
}

sim::Time Ctx::now() { return rt_->engine().now(); }

// ---------------------------------------------------------------------------
// Symmetric memory

void* Ctx::shmalloc(std::size_t bytes, Domain domain) {
  rt_->check_symmetric_alloc(alloc_seq_++, bytes, domain);
  void* p = rt_->heap(pe_, domain).allocate(bytes);
  barrier_all();  // shmalloc is collective
  return p;
}

void* Ctx::shcalloc(std::size_t count, std::size_t size, Domain domain) {
  if (size != 0 && count > SIZE_MAX / size) {
    throw ShmemError("shcalloc: count * size overflows (" +
                     std::to_string(count) + " * " + std::to_string(size) + ")");
  }
  const std::size_t bytes = count * size;
  rt_->check_symmetric_alloc(alloc_seq_++, bytes, domain);
  void* p = rt_->heap(pe_, domain).allocate(bytes);
  // Zero before the barrier: a peer leaves it only once every copy is zero.
  if (domain == Domain::kGpu) {
    // Device-domain zeroing: stage zeros through the host (the cudaMemset
    // equivalent, charged as one H->D copy).
    std::vector<std::byte> zeros(bytes);
    cuda_memcpy(p, zeros.data(), bytes);
  } else {
    std::memset(p, 0, bytes);
  }
  barrier_all();  // the allocation's only barrier
  return p;
}

void Ctx::shfree(void* p) {
  barrier_all();  // nobody may still be targeting the block
  // Freeing from whichever heap owns the pointer.
  for (Domain d : {Domain::kHost, Domain::kGpu, Domain::kPmem}) {
    if (rt_->heap(pe_, d).contains(p)) {
      rt_->heap(pe_, d).deallocate(p);
      return;
    }
  }
  throw ShmemError("shfree of a non-symmetric pointer");
}

void* Ctx::shmem_ptr(const void* sym, int pe) {
  Domain dom;
  void* remote = rt_->translate(sym, pe_, pe, 1, &dom);
  if (dom == Domain::kHost && rt_->cluster().same_node(pe_, pe)) return remote;
  return nullptr;
}

// ---------------------------------------------------------------------------
// Operation accounting

Ctx::OpHists& Ctx::op_hists(TraceEvent::Kind kind, Protocol proto) {
  OpHists& slot = op_hists_[static_cast<std::size_t>(kind)]
                           [static_cast<std::size_t>(proto)];
  if (slot.bytes == nullptr) {
    std::string suffix = std::string(to_string(kind)) + "/" + to_string(proto);
    Metrics& m = rt_->metrics();
    slot.bytes = &m.histogram("op_bytes/" + suffix);
    slot.latency = &m.histogram("op_latency_ns/" + suffix);
  }
  return slot;
}

sim::Time Ctx::begin_op(TraceEvent::Kind kind) {
  op_kind_ = kind;
  Counter*& ops = op_counts_[static_cast<std::size_t>(kind)];
  if (ops == nullptr) {
    ops = &rt_->metrics().counter(std::string("ops/") + to_string(kind));
  }
  ops->add();
  return now();
}

void Ctx::count_protocol(TraceEvent::Kind kind, Protocol proto,
                         std::size_t bytes) {
  last_protocol_ = proto;
  op_hists(kind, proto).bytes->record(bytes);
}

void Ctx::finish_op(TraceEvent::Kind kind, int target_pe, std::size_t bytes,
                    sim::Time t0) {
  sim::Time t1 = now();
  if (last_protocol_ != Protocol::kCount_) {
    op_hists(kind, last_protocol_)
        .latency->record(static_cast<std::uint64_t>((t1 - t0).count_ns()));
  }
  if (rt_->tracer().enabled()) {
    rt_->tracer().record(
        TraceEvent{pe_, target_pe, kind, last_protocol_, bytes, t0, t1});
  }
}

// ---------------------------------------------------------------------------
// RMA entry points

RmaOp Ctx::make_op(void* remote_sym, void* local, std::size_t n, int pe,
                   bool blocking) {
  if (pe < 0 || pe >= n_pes()) throw ShmemError("target PE out of range");
  RmaOp op;
  op.target_pe = pe;
  Domain dom;
  op.remote = rt_->translate(remote_sym, pe_, pe, n, &dom);
  op.remote_domain = dom;
  op.local = local;
  op.local_is_device =
      rt_->cuda().attributes(local).space == cudart::MemSpace::kDevice;
  op.bytes = n;
  op.same_node = rt_->cluster().same_node(pe_, pe);
  op.blocking = blocking;
  return op;
}

void Ctx::putmem(void* dst_sym, const void* src, std::size_t n, int pe) {
  if (n == 0) return;
  sim::Time t0 = begin_op(TraceEvent::Kind::kPut);
  proc().delay(Duration::us(rt_->cluster().params().shmem_sw_overhead_us));
  RmaOp op = make_op(dst_sym, const_cast<void*>(src), n, pe, /*blocking=*/true);
  rt_->transport().put(*this, op);
  finish_op(TraceEvent::Kind::kPut, pe, n, t0);
}

void Ctx::putmem_nbi(void* dst_sym, const void* src, std::size_t n, int pe) {
  if (n == 0) return;
  begin_op(TraceEvent::Kind::kPut);
  proc().delay(Duration::us(rt_->cluster().params().shmem_sw_overhead_us));
  RmaOp op = make_op(dst_sym, const_cast<void*>(src), n, pe, /*blocking=*/false);
  rt_->transport().put(*this, op);
}

void Ctx::getmem(void* dst, const void* src_sym, std::size_t n, int pe) {
  if (n == 0) return;
  sim::Time t0 = begin_op(TraceEvent::Kind::kGet);
  proc().delay(Duration::us(rt_->cluster().params().shmem_sw_overhead_us));
  RmaOp op = make_op(const_cast<void*>(src_sym), dst, n, pe, /*blocking=*/true);
  rt_->transport().get(*this, op);
  finish_op(TraceEvent::Kind::kGet, pe, n, t0);
}

void Ctx::getmem_nbi(void* dst, const void* src_sym, std::size_t n, int pe) {
  if (n == 0) return;
  begin_op(TraceEvent::Kind::kGet);
  proc().delay(Duration::us(rt_->cluster().params().shmem_sw_overhead_us));
  RmaOp op = make_op(const_cast<void*>(src_sym), dst, n, pe, /*blocking=*/false);
  rt_->transport().get(*this, op);
}

void Ctx::put_sync(void* dst_sym, const void* src, std::size_t n, int pe) {
  putmem(dst_sym, src, n, pe);
  quiet();
}

void Ctx::quiet() {
  wait_for([&] {
    std::erase_if(pending_, [](const PendingOp& p) { return p.comp->ok(); });
    return pending_.empty();
  });
}

sim::Duration Ctx::replay_backoff(int replays) const {
  const Tuning& t = rt_->tuning();
  int exp = std::min(replays - 1, 16);
  double us = t.replay_backoff_base_us * static_cast<double>(1u << exp);
  return Duration::us(std::min(us, t.replay_backoff_cap_us));
}

void Ctx::recover_pending() {
  // By index, holding nothing across a yield: a service thread's issue()
  // may append to pending_ while this process sleeps in the backoff.
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    if (!pending_[i].comp->failed()) continue;
    if (!pending_[i].repost) {
      throw ShmemError("pe " + std::to_string(pe_) +
                       ": non-replayable operation failed permanently");
    }
    if (++pending_[i].replays > rt_->tuning().max_sw_replays) {
      throw ShmemError("pe " + std::to_string(pe_) +
                       ": operation still failing after " +
                       std::to_string(rt_->tuning().max_sw_replays) +
                       " software replays");
    }
    proc().delay(replay_backoff(pending_[i].replays));
    rt_->faults().on_event(sim::FaultEvent::kSwReplay, pe_);
    auto repost = pending_[i].repost;  // a copy: the element may move
    pending_[i].comp = repost();       // runs before pending_[i] is indexed
  }
}

sim::CompletionPtr Ctx::await_reliable(
    sim::Process& worker, sim::CompletionPtr comp,
    const std::function<sim::CompletionPtr()>& repost) {
  comp->wait(worker);
  int replays = 0;
  while (comp->failed()) {
    if (++replays > rt_->tuning().max_sw_replays) {
      throw ShmemError("pe " + std::to_string(pe_) +
                       ": operation still failing after " +
                       std::to_string(rt_->tuning().max_sw_replays) +
                       " software replays");
    }
    worker.delay(replay_backoff(replays));
    rt_->faults().on_event(sim::FaultEvent::kSwReplay, pe_);
    comp = repost();
    comp->wait(worker);
  }
  return comp;
}

sim::CompletionPtr Ctx::issue(sim::Process& worker,
                              const std::function<sim::CompletionPtr()>& post,
                              bool tracked) {
  if (rt_->needs_completion_ordering()) return await_reliable(worker, post);
  sim::CompletionPtr comp = post();
  if (tracked) track(comp);
  return comp;
}

bool Ctx::finish_attempt(const sim::CompletionPtr& done, bool blocking,
                         sim::Time deadline) {
  if (!blocking && deadline == sim::Time::never()) {
    track(done);
    return true;
  }
  return wait_for_deadline([&] { return done->done(); }, deadline);
}

void Ctx::progress() {
  while (auto m = rx_.try_receive()) {
    proc().delay(Duration::us(rt_->cluster().params().progress_wakeup_us));
    rt_->transport().handle_ctrl(*this, *m, proc());
  }
  recover_pending();
}

// ---------------------------------------------------------------------------
// Staging helpers

StagingRing::StagingRing(Runtime& rt, int ep)
    : mem_(kStagingSlots * rt.tuning().pipeline_chunk),
      chunk_(rt.tuning().pipeline_chunk),
      streams_(kStagingSlots, cudart::Stream(rt.cluster().placement(ep).node,
                                             rt.cluster().placement(ep).gpu)) {
  rt.verbs().reg_cache().register_at_init(ep, mem_.data(), mem_.size());
}

void StagingRing::acquire(Ctx& owner, sim::Process& worker, std::size_t s) {
  if (comp_[s]) {
    comp_[s] = owner.await_reliable(worker, std::move(comp_[s]), repost_[s]);
  }
}

void StagingRing::drain(Ctx& owner, sim::Process& worker) {
  for (std::size_t s = 0; s < kStagingSlots; ++s) acquire(owner, worker, s);
}

void StagingRing::settle(sim::Process& worker) {
  for (std::size_t s = 0; s < kStagingSlots; ++s) {
    if (comp_[s]) comp_[s]->wait(worker);
    record(s, nullptr, nullptr);
  }
}

std::byte* Ctx::grow_registered(sim::ZeroPages& buf, std::size_t bytes,
                                sim::Process& worker) {
  if (buf.size() < bytes) {
    ib::RegistrationCache& cache = rt_->verbs().reg_cache();
    cache.release(pe_, buf.data());
    buf = sim::ZeroPages(bytes);
    cache.get_or_register(worker, pe_, buf.data(), buf.size(), /*pinned=*/true);
  }
  return buf.data();
}

std::byte* Ctx::bounce(std::size_t min_bytes) {
  if (bounce_.data() == nullptr && min_bytes <= staging_ring_.bytes()) {
    // A ring-sized bounce registers free, like the ring.
    bounce_ = sim::ZeroPages(staging_ring_.bytes());
    rt_->verbs().reg_cache().register_at_init(pe_, bounce_.data(),
                                              bounce_.size());
  }
  return grow_registered(bounce_, min_bytes, proc());
}

std::byte* Ctx::eager_src_slot(int peer) {
  auto [it, inserted] = eager_src_slots_.try_emplace(peer);
  if (inserted) {
    it->second.resize(rt_->eager_slot_bytes());
    rt_->verbs().reg_cache().register_at_init(pe_, it->second.data(),
                                              it->second.size());
  }
  return it->second.data();
}

std::byte* Ctx::rendezvous_staging(std::size_t bytes, sim::Process& worker) {
  return grow_registered(rendezvous_staging_, bytes, worker);
}

// ---------------------------------------------------------------------------
// CUDA-side helpers

void* Ctx::cuda_malloc(std::size_t bytes) {
  hw::PePlacement pl = rt_->cluster().placement(pe_);
  return rt_->cuda().malloc_device(pl.node, pl.gpu, bytes);
}

void Ctx::cuda_memcpy(void* dst, const void* src, std::size_t n) {
  rt_->cuda().memcpy_sync(proc(), node(), dst, src, n);
}

void Ctx::launch_kernel(std::size_t cells, double per_cell_ns,
                        const std::function<void()>& body) {
  rt_->cuda().launch_kernel_sync(proc(), cells, per_cell_ns, body);
}

void Ctx::compute(sim::Duration d) {
  // The service-thread design steals CPU resources from the application
  // (Section III-C: "threads will consume half of the CPU resources").
  if (rt_->options().service_thread) d = d * 2.0;
  proc().delay(d);
}

// ---------------------------------------------------------------------------
// Collectives

void Ctx::barrier_all() {
  quiet();
  rt_->metrics().counter("ops/barrier").add();
  coll::sync(*this, world_team_);
}

void Ctx::record_collective(CollKind kind, CollAlgo algo, std::size_t bytes,
                            sim::Time t0) {
  sim::Time t1 = now();
  OpHists& h =
      coll_hists_[{static_cast<int>(kind), static_cast<int>(algo)}];
  if (h.bytes == nullptr) {
    std::string suffix = std::string(to_string(kind)) + "/" + to_string(algo);
    Metrics& m = rt_->metrics();
    h.bytes = &m.histogram("coll_bytes/" + suffix);
    h.latency = &m.histogram("coll_latency_ns/" + suffix);
  }
  h.bytes->record(bytes);
  h.latency->record(static_cast<std::uint64_t>((t1 - t0).count_ns()));
  if (rt_->tracer().enabled()) {
    TraceEvent::Kind k = TraceEvent::Kind::kCollBarrier;
    switch (kind) {
      case CollKind::kBarrier: k = TraceEvent::Kind::kCollBarrier; break;
      case CollKind::kBroadcast: k = TraceEvent::Kind::kCollBcast; break;
      case CollKind::kAllreduce: k = TraceEvent::Kind::kCollReduce; break;
      case CollKind::kFcollect: k = TraceEvent::Kind::kCollFcollect; break;
      case CollKind::kAlltoall: k = TraceEvent::Kind::kCollAlltoall; break;
      case CollKind::kCount_: break;
    }
    rt_->tracer().record(
        TraceEvent{pe_, /*target=*/-1, k, Protocol::kCount_, bytes, t0, t1});
  }
}

// ---------------------------------------------------------------------------
// Teams

Team* Ctx::team_split_strided(Team& parent, int start, int stride, int size) {
  if (size <= 0 || start < 0 || stride <= 0 ||
      start + (size - 1) * stride >= parent.n_pes()) {
    throw ShmemError("team_split_strided: triplet (" + std::to_string(start) +
                     ", " + std::to_string(stride) + ", " +
                     std::to_string(size) + ") does not fit a team of " +
                     std::to_string(parent.n_pes()));
  }
  const int off = parent.my_pe() - start;
  const bool member = off >= 0 && off % stride == 0 && off / stride < size;

  // Agree on a sync-pool slot: AND-allreduce of per-PE free masks over the
  // parent, using the parent block's control-plane reserve word (disjoint
  // from the workspace the allreduce itself stages through).
  auto* mask = reinterpret_cast<std::int64_t*>(
      coll_layout_.reserve(coll_pool_, parent.slot()));
  *mask = static_cast<std::int64_t>(~static_cast<std::uint64_t>(team_slots_used_));
  coll::allreduce(*this, parent, mask, mask, 1, ReduceOp::kBand,
                  ScalarType::kI64);
  const auto common_free = static_cast<std::uint64_t>(*mask);

  int slot = -1;
  for (int b = 1; b < coll::SyncLayout::kMaxTeams; ++b) {
    if (common_free & (1ull << b)) {
      slot = b;
      break;
    }
  }
  if (slot < 0) {
    // Identical outcome on every member: the mask is an allreduce result.
    throw ShmemError("team_split_strided: no free sync-pool slot (at most " +
                     std::to_string(coll::SyncLayout::kMaxTeams - 1) +
                     " concurrent teams per PE)");
  }

  Team* out = nullptr;
  if (member) {
    team_slots_used_ |= 1u << slot;
    // A fresh team restarts its generation counter at zero, so every flag
    // in the block must restart below it. Only members' blocks are ever
    // written by the new team's collectives, and only after this split
    // returns — which the closing parent sync orders after the memset.
    std::memset(coll_layout_.barrier_flags(coll_pool_, slot), 0,
                coll_layout_.flags_bytes());
    teams_.push_back(std::make_unique<Team>(
        parent.world_pe(start), parent.stride() * stride, size,
        /*my_idx=*/off / stride, slot));
    out = teams_.back().get();
  }
  coll::sync(*this, parent);
  return out;
}

void Ctx::team_destroy(Team* team) {
  if (team == nullptr) return;
  if (team->is_world()) throw ShmemError("cannot destroy the world team");
  coll::sync(*this, *team);  // every member done with the team's collectives
  team_slots_used_ &= ~(1u << team->slot());
  std::erase_if(teams_,
                [team](const std::unique_ptr<Team>& t) { return t.get() == team; });
}

}  // namespace gdrshmem::core
