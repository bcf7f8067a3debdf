#include "sim/simulation.h"

#include <algorithm>
#include <chrono>

#if FSD_SIM_HAS_FIBERS
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "common/logging.h"

namespace fsd::sim {
namespace {

/// Internal control-flow exception used solely to unwind user stacks of
/// processes that are still blocked when the Simulation is destroyed. It is
/// never thrown across the public API.
struct ProcessKilled {};

const std::string kSchedulerName = "scheduler";

#if FSD_SIM_HAS_FIBERS
/// Fiber stacks hold real workload code (worker trees run whole inference
/// passes inside processes), so they must match what an OS thread would
/// offer. Each is a private anonymous mapping, so its pages are committed
/// on first touch; a reaped fiber's stack goes back to the Simulation's
/// pool with the pages it touched still resident, and the next fiber
/// reuses it. Resident stack memory therefore tracks the peak number of
/// concurrently live fibers times the depth each reached, never the total
/// number of processes.
constexpr size_t kFiberStackBytes = 8u << 20;

size_t PageBytes() {
  static const size_t bytes = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return bytes;
}
#endif

}  // namespace

void SimSignal::Fire() {
  // During teardown, destructors on concurrently unwinding process stacks
  // may fire signals; waking waiters then would race on the event heap
  // (and the waiters are being killed anyway).
  if (sim_->tearing_down()) return;
  if (fired_) return;
  fired_ = true;
  for (uint64_t pid : waiting_pids_) sim_->WakeNow(pid);
  waiting_pids_.clear();
}

Simulation::~Simulation() {
  // Make every kernel entry point inert before waking the victims: their
  // unwinding stacks may re-enter the simulation (see tearing_down()).
  tearing_down_.store(true, std::memory_order_release);
  // Offloaded closures reference buffers on the submitting processes'
  // stacks, so the pool must be fully quiesced BEFORE any process stack is
  // unwound or freed. Submitters blocked on their completion wake are
  // unwound below via ProcessKilled and never reach their acquire, so
  // discarding their queued jobs is safe.
  DrainOffloadPool();
#if FSD_SIM_HAS_FIBERS
  if (fibers_) {
    // Resume each still-blocked fiber once with the kill flag set: its
    // YieldToScheduler observes the flag, throws, and the stack unwinds
    // back through the trampoline to this swapcontext. Never-started
    // fibers have no stack to unwind.
    for (auto& p : processes_) {
      if (p == nullptr || p->finished || !p->started) continue;
      p->killed = true;
      swapcontext(&sched_context_, &p->context);
    }
    return;  // no worker threads exist on the fiber tier
  }
#endif
  // Unwind any still-blocked process: mark it killed and resume its worker
  // once, so the blocked YieldToScheduler observes the kill. Processes
  // that never started have no worker — and no stack — to unwind.
  for (auto& p : processes_) {
    if (p == nullptr || p->finished || p->worker == nullptr) continue;
    p->killed = true;
    p->worker->run_sem.release();
  }
  // Shut down pool workers parked between assignments.
  for (Worker* w : idle_workers_) {
    w->shutdown = true;
    w->run_sem.release();
  }
  for (auto& w : workers_) w->thread.join();
}

void Simulation::WorkerMain(Worker* w) {
  for (;;) {
    // Wait for an assignment (bound at the process's first resume, so its
    // body always enters before any kill) or for teardown.
    w->run_sem.acquire();
    if (w->shutdown) return;
    Process* p = w->proc;
    try {
      p->body();
    } catch (const ProcessKilled&) {
      // Simulation teardown: multiple killed threads unwind concurrently,
      // so only touch this process's own state — never shared kernel state.
      p->finished = true;
      return;
    }
    FinishProcess(p);
    w->proc = nullptr;
    // Return to the idle stack BEFORE yielding — the scheduler is parked
    // on our yield, so the push cannot race.
    idle_workers_.push_back(w);
    w->yield_sem.release();
  }
}

ProcessHandle Simulation::AddProcess(std::string name,
                                     std::function<void()> body,
                                     SimTime start) {
  // Registering a process while the destructor walks processes_ would
  // mutate it under its feet; refuse with an inert handle.
  if (tearing_down()) return ProcessHandle(std::make_shared<SimSignal>(this));
  auto proc = std::make_unique<Process>();
  Process* p = proc.get();
  p->pid = next_pid_++;
  p->name = std::move(name);
  p->body = std::move(body);
  p->done = MakeSignal();
  ++live_processes_;
  processes_.push_back(std::move(proc));

  // Both tiers bind a pooled thread (or a fiber stack) lazily at first
  // resume, so a never-started process costs no thread or stack at all.
  PushEvent(start, p->pid, /*epoch=*/0, EventKind::kWake);
  return ProcessHandle(p->done);
}

void Simulation::Run(SimTime until) {
  FSD_CHECK(!in_run_);
  in_run_ = true;
  while (!events_.empty()) {
    if (until >= 0.0 && events_.front().time > until) {
      now_ = until;  // leave the event queued for a later Run()
      break;
    }
    std::pop_heap(events_.begin(), events_.end(), EventAfter());
    const Event ev = events_.back();
    events_.pop_back();
    FSD_CHECK_GE(ev.time, now_);
    now_ = ev.time;
    ++events_dispatched_;
    if (ev.kind == EventKind::kCallback) {
      std::function<void()> fn = std::move(callback_slots_[ev.target]);
      callback_slots_[ev.target] = nullptr;
      // Recycle the slot before running: the callback may schedule again.
      free_slots_.push_back(static_cast<uint32_t>(ev.target));
      fn();
      continue;
    }
    Process* p = FindProcess(ev.target);
    if (p == nullptr || p->finished) continue;
    if (ev.kind == EventKind::kTimeout && ev.epoch != p->wait_epoch) {
      continue;  // stale
    }
    ResumeProcess(p);
  }
  if (events_.empty() && live_processes_ > 0) {
    FSD_LOG(kWarn, "simulation drained with %d live process(es) blocked",
            live_processes_);
  }
  in_run_ = false;
}

Simulation::Process* Simulation::FindProcess(uint64_t pid) const {
  // Pids are assigned sequentially from 1, so the vector doubles as the
  // pid index; reaped (finished) processes leave a null slot behind.
  if (pid == 0 || pid > processes_.size()) return nullptr;
  return processes_[pid - 1].get();
}

void Simulation::BindWorker(Process* p) {
  Worker* w;
  if (!idle_workers_.empty()) {
    w = idle_workers_.back();
    idle_workers_.pop_back();
  } else {
    auto owned = std::make_unique<Worker>();
    w = owned.get();
    workers_.push_back(std::move(owned));
    w->thread = std::thread([this, w] { WorkerMain(w); });
  }
  w->proc = p;
  p->worker = w;
}

void Simulation::ResumeProcess(Process* p) {
  FSD_CHECK(running_ == nullptr);
  running_ = p;
#if FSD_SIM_HAS_FIBERS
  if (fibers_) {
    if (!p->started) {
      p->started = true;
      StartFiber(p);
    }
    swapcontext(&sched_context_, &p->context);
    running_ = nullptr;
    if (p->finished) ReapProcess(p);
    return;
  }
#endif
  if (!p->started) {
    p->started = true;
    BindWorker(p);
  }
  p->worker->run_sem.release();
  p->worker->yield_sem.acquire();
  running_ = nullptr;
  if (p->finished) ReapProcess(p);
}

void Simulation::ReapProcess(Process* p) {
  // A finished process's slot (name, body captures, signal ref) is dead
  // weight — a million-query replay must not accumulate it.
#if FSD_SIM_HAS_FIBERS
  // The scheduler is back on its own stack, so the fiber's is free.
  if (p->stack != nullptr) free_stacks_.push_back(std::move(p->stack));
#endif
  processes_[p->pid - 1].reset();
}

void Simulation::YieldToScheduler(Process* p) {
#if FSD_SIM_HAS_FIBERS
  if (fibers_) {
    swapcontext(&p->context, &sched_context_);
    if (p->killed) throw ProcessKilled{};
    return;
  }
#endif
  p->worker->yield_sem.release();
  p->worker->run_sem.acquire();
  if (p->killed) throw ProcessKilled{};
}

#if FSD_SIM_HAS_FIBERS
void Simulation::UnmapFiberStack::operator()(char* mapping) const {
  munmap(mapping, PageBytes() + kFiberStackBytes);
}

void Simulation::StartFiber(Process* p) {
  p->sim = this;
  if (!free_stacks_.empty()) {
    p->stack = std::move(free_stacks_.back());
    free_stacks_.pop_back();
  } else {
    void* mapping = mmap(nullptr, PageBytes() + kFiberStackBytes,
                         PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    FSD_CHECK(mapping != MAP_FAILED);
    p->stack.reset(static_cast<char*>(mapping));
    // Stacks grow down: the lowest page is the guard.
    FSD_CHECK_EQ(mprotect(mapping, PageBytes(), PROT_NONE), 0);
    ++fiber_stacks_mapped_;
  }
  getcontext(&p->context);
  p->context.uc_stack.ss_sp = p->stack.get() + PageBytes();
  p->context.uc_stack.ss_size = kFiberStackBytes;
  p->context.uc_link = &sched_context_;
  const uint64_t bits = static_cast<uint64_t>(reinterpret_cast<uintptr_t>(p));
  makecontext(&p->context,
              reinterpret_cast<void (*)()>(&Simulation::FiberTrampoline), 2,
              static_cast<unsigned int>(bits >> 32),
              static_cast<unsigned int>(bits & 0xFFFFFFFFu));
}

void Simulation::FiberTrampoline(unsigned int hi, unsigned int lo) {
  const uint64_t bits = (static_cast<uint64_t>(hi) << 32) | lo;
  Process* p = reinterpret_cast<Process*>(static_cast<uintptr_t>(bits));
  Simulation* sim = p->sim;
  try {
    p->body();
    sim->FinishProcess(p);
  } catch (const ProcessKilled&) {
    // Teardown unwind: only this process's own state may be touched.
    p->finished = true;
  }
  // Hand control back for the last time; the scheduler (or the tearing-
  // down destructor) reaps the process, freeing this very stack only
  // after the switch completes.
  swapcontext(&p->context, &sim->sched_context_);
}
#endif

void Simulation::FinishProcess(Process* p) {
  p->done->Fire();  // wakes joiners; safe: scheduler is parked on our yield
  p->finished = true;
  --live_processes_;
}

void Simulation::PushEvent(SimTime delay, uint64_t target, uint64_t epoch,
                           EventKind kind) {
  FSD_CHECK_GE(delay, 0.0);
  Event ev;
  ev.time = now_ + delay;
  ev.seq = next_seq_++;
  ev.target = target;
  ev.epoch = epoch;
  ev.kind = kind;
  events_.push_back(ev);
  std::push_heap(events_.begin(), events_.end(), EventAfter());
}

void Simulation::ScheduleWake(Process* p, SimTime delay, bool is_timeout,
                              uint64_t epoch) {
  PushEvent(delay, p->pid, epoch,
            is_timeout ? EventKind::kTimeout : EventKind::kWake);
}

void Simulation::WakeNow(uint64_t pid) {
  if (tearing_down()) return;
  Process* p = FindProcess(pid);
  if (p == nullptr || p->finished) return;
  p->wait_satisfied = true;
  ++p->wait_epoch;  // invalidate any pending timeout event
  ScheduleWake(p, 0.0, /*is_timeout=*/false, /*epoch=*/0);
}

void Simulation::ScheduleCallback(SimTime delay, std::function<void()> fn) {
  if (tearing_down()) return;  // no scheduler will ever dispatch it
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    callback_slots_[slot] = std::move(fn);
  } else {
    slot = static_cast<uint32_t>(callback_slots_.size());
    callback_slots_.push_back(std::move(fn));
  }
  PushEvent(delay, slot, /*epoch=*/0, EventKind::kCallback);
}

void Simulation::Hold(SimTime dt) {
  if (tearing_down()) return;  // called from a destructor mid-unwind
  Process* p = running_;
  FSD_CHECK(p != nullptr);
  ScheduleWake(p, dt, /*is_timeout=*/false, /*epoch=*/0);
  YieldToScheduler(p);
}

void Simulation::Offload(SimTime duration, std::function<void()> fn) {
  Process* p = running_;
  if (tearing_down() || p == nullptr) {
    // Destructor unwind or scheduler context: no process to park, no pool
    // guaranteed alive. Run synchronously so the caller's side effects
    // still happen (e.g. a destructor flushing a buffer) and return.
    if (fn != nullptr) fn();
    return;
  }
  if (fn != nullptr) {
    ++offload_calls_;
    offload_virtual_s_ += duration;
  }
  // Uniform virtual-time path for every pool size: the completion event is
  // an ordinary wake at now+duration, scheduled BEFORE the yield, so event
  // (time, seq) order cannot depend on compute_threads. Only where the
  // closure physically executes differs — unobservable under the Offload
  // determinism contract (the submitter is blocked throughout).
  const bool pooled = fn != nullptr && tuning_.compute_threads > 0;
  if (pooled) {
    EnsureOffloadPool();
    {
      std::lock_guard<std::mutex> lock(offload_pool_->mutex);
      offload_pool_->queue.push_back(OffloadJob{std::move(fn), &p->offload_sem});
    }
    offload_pool_->cv.notify_one();
  }
  ScheduleWake(p, duration, /*is_timeout=*/false, /*epoch=*/0);
  YieldToScheduler(p);  // throws ProcessKilled at teardown — before acquire
  if (pooled) {
    // Join the closure. Usually a no-op: the pool had the whole virtual
    // window's worth of wall time to finish it.
    p->offload_sem.acquire();
  } else if (fn != nullptr) {
    fn();  // inline tier: run at the resume point, after the window
  }
}

OffloadStats Simulation::offload_stats() const {
  OffloadStats stats;
  stats.calls = offload_calls_;
  stats.virtual_s = offload_virtual_s_;
  if (offload_pool_ != nullptr) {
    std::lock_guard<std::mutex> lock(offload_pool_->mutex);
    stats.pool_runs = offload_pool_->runs;
    stats.pool_busy_wall_s = offload_pool_->busy_wall_s;
  }
  return stats;
}

void Simulation::EnsureOffloadPool() {
  if (offload_pool_ != nullptr) return;
  offload_pool_ = std::make_unique<OffloadPool>();
  const int n = tuning_.compute_threads;
  offload_pool_->threads.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    offload_pool_->threads.emplace_back([this] { OffloadWorkerMain(); });
  }
}

void Simulation::OffloadWorkerMain() {
  OffloadPool* pool = offload_pool_.get();
  for (;;) {
    OffloadJob job;
    {
      std::unique_lock<std::mutex> lock(pool->mutex);
      pool->cv.wait(lock,
                    [pool] { return pool->shutdown || !pool->queue.empty(); });
      if (pool->queue.empty()) return;  // shutdown, nothing left to run
      job = std::move(pool->queue.front());
      pool->queue.pop_front();
      ++pool->active;
    }
    const auto wall_start = std::chrono::steady_clock::now();
    job.fn();
    const double busy =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    // Retire the job in the counters first, then publish completion to
    // the parked submitter: once the submitter resumes, offload_stats()
    // already counts its closure. The semaphore release carries the
    // happens-before edge for the closure's writes; a drain that sees
    // active == 0 early still joins this thread past the release.
    {
      std::lock_guard<std::mutex> lock(pool->mutex);
      --pool->active;
      ++pool->runs;
      pool->busy_wall_s += busy;
    }
    pool->idle_cv.notify_all();
    job.done->release();
  }
}

void Simulation::DrainOffloadPool() {
  if (offload_pool_ == nullptr) return;
  OffloadPool* pool = offload_pool_.get();
  {
    std::unique_lock<std::mutex> lock(pool->mutex);
    // Queued-but-unstarted jobs are discarded: their submitters are about
    // to be unwound with ProcessKilled and never reach the acquire.
    pool->queue.clear();
    pool->shutdown = true;
    // In-flight closures still reference live process stacks — wait them
    // out before any unwind begins.
    pool->idle_cv.wait(lock, [pool] { return pool->active == 0; });
  }
  pool->cv.notify_all();
  for (std::thread& t : pool->threads) t.join();
}

bool Simulation::WaitSignal(SimSignal* signal, SimTime timeout) {
  if (tearing_down()) return signal->fired();
  if (signal->fired()) return true;
  Process* p = running_;
  FSD_CHECK(p != nullptr);
  signal->waiting_pids_.push_back(p->pid);
  p->wait_satisfied = false;
  ++p->wait_epoch;
  if (timeout >= 0.0) {
    ScheduleWake(p, timeout, /*is_timeout=*/true, p->wait_epoch);
  }
  YieldToScheduler(p);
  const bool fired = p->wait_satisfied;
  if (!fired) {
    // Timed out: de-register so a later Fire cannot wake us spuriously.
    auto& pids = signal->waiting_pids_;
    pids.erase(std::remove(pids.begin(), pids.end(), p->pid), pids.end());
  }
  return fired;
}

ProcessHandle Simulation::Spawn(std::string name, std::function<void()> body) {
  return AddProcess(std::move(name), std::move(body), 0.0);
}

void Simulation::Join(const ProcessHandle& handle) {
  FSD_CHECK(handle.done_signal() != nullptr);
  WaitSignal(handle.done_signal().get());
}

const std::string& Simulation::CurrentProcessName() const {
  return running_ != nullptr ? running_->name : kSchedulerName;
}

SimTime ParallelMakespan(const std::vector<SimTime>& latencies, int lanes) {
  if (latencies.empty()) return 0.0;
  if (lanes < 1) lanes = 1;
  std::vector<SimTime> lane_free(static_cast<size_t>(lanes), 0.0);
  SimTime makespan = 0.0;
  for (SimTime latency : latencies) {
    auto it = std::min_element(lane_free.begin(), lane_free.end());
    *it += latency;
    makespan = std::max(makespan, *it);
  }
  return makespan;
}

}  // namespace fsd::sim
