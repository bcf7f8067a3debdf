// Process-oriented discrete-event simulation (DES) kernel.
//
// The kernel drives "processes" — user functions that execute strictly one
// at a time under the scheduler's control (SimPy-style cooperative
// simulation). Virtual time only advances between events; a process blocks
// by calling Hold()/Wait*() which hands control back to the scheduler.
// Because exactly one process is ever runnable and the event queue orders
// by (time, sequence), simulations are fully deterministic and race-free
// regardless of host scheduling.
//
// Two per-event cost tiers exist (SimTuning::use_fibers): the default runs
// process bodies as single-thread FIBERS (ucontext) — a handoff is one
// user-space stack switch, no OS scheduling at all, which is what lets a
// trace replay push millions of events through on one core. Where fibers
// are unavailable (sanitized builds instrument stack switches poorly,
// non-Linux hosts) or switched off, process bodies bind lazily to a reused
// pool of worker threads and control moves over a semaphore pair. Event
// ordering is byte-identical across both tiers — the tuning only changes
// HOW a decision already made by the event heap is carried out — so the
// thread tier doubles as the fibers' cross-validation oracle
// (tests/sim_property_test.cc).
#ifndef FSD_SIM_SIMULATION_H_
#define FSD_SIM_SIMULATION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <semaphore>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"

/// Fibers switch stacks under the sanitizers' feet (ASan's fake-stack and
/// TSan's shadow state both assume one stack per thread), so sanitized
/// builds fall back to the pooled-thread tier. Define FSD_SIM_NO_FIBERS to
/// force the fallback on any build.
#if defined(FSD_SIM_NO_FIBERS) || FSD_SANITIZED || !defined(__linux__)
#define FSD_SIM_HAS_FIBERS 0
#else
#define FSD_SIM_HAS_FIBERS 1
#endif

#if FSD_SIM_HAS_FIBERS
#include <ucontext.h>
#endif

namespace fsd::sim {

class Simulation;

/// Virtual time in seconds.
using SimTime = double;

/// Kernel execution-cost knobs. Neither may change observable simulation
/// behaviour (event order, times, process semantics) — only the wall-clock
/// cost per event.
struct SimTuning {
  /// Run process bodies as ucontext fibers on the scheduler's own thread:
  /// a handoff is a user-space stack switch (~100ns) instead of an OS
  /// context-switch round trip — on a single-core host the difference is
  /// the whole kernel budget. Off, or when the build lacks fiber support
  /// (FSD_SIM_HAS_FIBERS == 0: sanitizers, non-Linux), process bodies run
  /// on pooled worker threads with a semaphore handoff instead.
  bool use_fibers = true;
  /// Real threads for Simulation::Offload closures. 0 runs every closure
  /// inline on the scheduler thread (today's behaviour); N overlaps
  /// closures from distinct processes across N host cores. Like
  /// use_fibers this must never change observable simulation behaviour —
  /// the closure's virtual cost is charged analytically either way, so
  /// event order, outputs and ledgers are byte-identical for every value.
  int compute_threads = 0;
};

/// A waitable, one-shot signal processes can block on (with timeout).
/// Signals are created and consumed entirely inside the simulation; they are
/// the building block for queue wakeups, barriers and async completions.
class SimSignal {
 public:
  explicit SimSignal(Simulation* sim) : sim_(sim) {}

  /// Fires the signal, waking all current and future waiters immediately.
  void Fire();
  bool fired() const { return fired_; }
  /// Processes currently blocked on this signal (channel backends use this
  /// to skip re-arming arrival signals nobody is waiting for).
  bool has_waiters() const { return !waiting_pids_.empty(); }

 private:
  friend class Simulation;
  Simulation* sim_;
  bool fired_ = false;
  std::vector<uint64_t> waiting_pids_;
};

/// Handle to a spawned process; join-able from other processes.
class ProcessHandle {
 public:
  ProcessHandle() = default;
  explicit ProcessHandle(std::shared_ptr<SimSignal> done)
      : done_(std::move(done)) {}
  const std::shared_ptr<SimSignal>& done_signal() const { return done_; }

 private:
  std::shared_ptr<SimSignal> done_;
};

/// Counters for the compute-offload layer (see Simulation::Offload).
/// `calls`/`virtual_s` are virtual-time facts and byte-identical across
/// every `compute_threads` value; `pool_runs`/`pool_busy_wall_s` describe
/// the real thread pool and are wall-clock (zero when compute_threads==0).
struct OffloadStats {
  uint64_t calls = 0;           ///< Offload() invocations carrying a closure
  double virtual_s = 0.0;       ///< total virtual seconds charged for them
  uint64_t pool_runs = 0;       ///< closures actually run on pool threads
  double pool_busy_wall_s = 0.0;  ///< wall seconds pool threads spent busy
};

/// The DES kernel. Not thread-safe from outside: construct, AddProcess, Run.
class Simulation {
 public:
  explicit Simulation(SimTuning tuning = SimTuning{})
      : tuning_(tuning),
        fibers_(FSD_SIM_HAS_FIBERS != 0 && tuning.use_fibers) {}
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Registers a root process to start at time `start`.
  /// Returns a handle whose done-signal fires when the process returns.
  ProcessHandle AddProcess(std::string name, std::function<void()> body,
                           SimTime start = 0.0);

  /// Runs until no events remain or `until` (if >= 0) is reached.
  void Run(SimTime until = -1.0);

  /// Current virtual time. Callable from within processes.
  SimTime Now() const { return now_; }

  /// ---- Process-context API (must be called from inside a process) ----

  /// Advances this process's virtual time by `dt` seconds.
  void Hold(SimTime dt);

  /// Blocks until `signal` fires, or until `timeout` elapses (timeout < 0
  /// waits forever). Returns true if the signal fired.
  bool WaitSignal(SimSignal* signal, SimTime timeout = -1.0);

  /// Spawns a child process starting immediately; returns a join handle.
  ProcessHandle Spawn(std::string name, std::function<void()> body);

  /// Blocks until the given process has finished.
  void Join(const ProcessHandle& handle);

  /// Creates a signal owned by the caller.
  std::shared_ptr<SimSignal> MakeSignal() {
    return std::make_shared<SimSignal>(this);
  }

  /// Schedules `fn` to run inside the scheduler at now+delay (no process
  /// context; used for service-side events like message delivery).
  void ScheduleCallback(SimTime delay, std::function<void()> fn);

  /// Runs `fn` while this process's virtual time advances by `duration`:
  /// the process yields, other events dispatch inside the virtual window
  /// [now, now+duration], and the process resumes at now+duration with
  /// `fn`'s side effects complete. With tuning().compute_threads == 0 the
  /// closure runs inline at the resume point; with N > 0 it runs on a real
  /// pool thread while the scheduler keeps dispatching — byte-identical
  /// virtual behaviour, better wall-clock.
  ///
  /// Determinism contract for `fn`: it may touch state owned by the
  /// calling process (which is blocked until the closure completes) and
  /// immutable shared data; it must not touch the Simulation, other
  /// processes' state, or any shared-mutable state, and it must not throw
  /// (capture a status instead and surface it after the call returns).
  /// A null `fn` is a plain virtual sleep (equivalent to Hold(duration)).
  void Offload(SimTime duration, std::function<void()> fn);

  /// Snapshot of the offload counters (see OffloadStats).
  OffloadStats offload_stats() const;

  /// Name of the currently running process (for logs/metrics).
  const std::string& CurrentProcessName() const;

  /// Number of processes that have not yet finished.
  int live_processes() const { return live_processes_; }

  /// True while the destructor unwinds still-blocked processes. Kernel
  /// entry points become inert no-ops in this window so that destructors
  /// running on killed-process stacks (which may legitimately call Hold,
  /// fire signals or schedule callbacks) can never deadlock, crash on a
  /// missing scheduler, or race on kernel state from concurrently
  /// unwinding threads.
  bool tearing_down() const {
    return tearing_down_.load(std::memory_order_acquire);
  }

  /// Fiber stacks mapped so far (diagnostic). Reaped fibers return their
  /// stack to a pool, so this is the peak number of concurrently started
  /// fibers, not the number of processes; always 0 on the thread tier.
  uint64_t fiber_stacks_mapped() const { return fiber_stacks_mapped_; }

  /// Total events dispatched (diagnostic).
  uint64_t events_dispatched() const { return events_dispatched_; }
  /// Events still queued (undispatched); after a run-to-completion Run()
  /// this is 0 — every scheduled event was dispatched or the simulation
  /// was torn down with the remainder drained.
  uint64_t pending_events() const {
    return static_cast<uint64_t>(events_.size());
  }

  const SimTuning& tuning() const { return tuning_; }

 private:
  friend class SimSignal;

  struct Process;

#if FSD_SIM_HAS_FIBERS
  /// Unmaps a fiber stack mapping (guard page plus usable stack).
  struct UnmapFiberStack {
    void operator()(char* mapping) const;
  };
  /// An mmap'd fiber stack: the mapping starts with a PROT_NONE guard page,
  /// so an overflow faults instead of running into the next mapping.
  using FiberStack = std::unique_ptr<char, UnmapFiberStack>;
#endif

  /// One pooled OS thread the thread tier hands process bodies to: bound
  /// to a process at its first resume and returned to an idle pool when
  /// the body finishes. The scheduler releases run_sem to transfer control
  /// to the process; the process releases yield_sem to transfer it back.
  /// The semaphore release/acquire pair carries the happens-before edge.
  struct Worker {
    std::thread thread;
    std::binary_semaphore run_sem{0};
    std::binary_semaphore yield_sem{0};
    Process* proc = nullptr;  // bound process (null when idle)
    bool shutdown = false;    // pool teardown flag
  };

  struct Process {
    uint64_t pid = 0;
    std::string name;
    std::function<void()> body;
    bool started = false;         // body entered at least once
    bool finished = false;
    bool killed = false;          // set at teardown to unwind the stack
    bool wait_satisfied = false;  // signal-wait outcome
    uint64_t wait_epoch = 0;      // guards against stale timeout events
    std::shared_ptr<SimSignal> done;
    Worker* worker = nullptr;     // execution thread (null until bound)
    /// Released by a pool thread when this process's offloaded closure
    /// completes; acquired by the process after its completion wake.
    /// Processes are heap-allocated and never move, so the pool thread's
    /// pointer to this stays valid until the destructor drains the pool.
    std::binary_semaphore offload_sem{0};
#if FSD_SIM_HAS_FIBERS
    Simulation* sim = nullptr;    // back-pointer for the fiber trampoline
    ucontext_t context;           // fiber execution state
    FiberStack stack;             // bound at first resume, pooled at reap
#endif
  };

  /// One queued compute-offload closure plus the semaphore that reports
  /// its completion to the submitting process.
  struct OffloadJob {
    std::function<void()> fn;
    std::binary_semaphore* done = nullptr;
  };

  /// The real thread pool behind Offload (lazily created on first use when
  /// compute_threads > 0). Pool threads only ever touch the job queue, the
  /// submitted closures and the per-process completion semaphores — never
  /// kernel state — so the scheduler stays single-threaded.
  struct OffloadPool {
    std::mutex mutex;
    std::condition_variable cv;       // workers wait for jobs/shutdown
    std::condition_variable idle_cv;  // drain waits for active == 0
    std::deque<OffloadJob> queue;
    std::vector<std::thread> threads;
    int active = 0;        // jobs currently executing on pool threads
    bool shutdown = false;
    // Wall-clock pool counters (under mutex; see OffloadStats).
    uint64_t runs = 0;
    double busy_wall_s = 0.0;
  };

  enum class EventKind : uint8_t {
    kWake = 0,      // resume a process (start or Hold/signal wake)
    kTimeout = 1,   // signal-timeout wake (epoch-guarded)
    kCallback = 2,  // run a pooled callback slot in scheduler context
  };

  /// Trivially-copyable heap entry: callbacks live in a pooled slot vector
  /// (`target` indexes it) so heap sifts move 40 flat bytes instead of a
  /// std::function, and slot storage is recycled across events.
  struct Event {
    SimTime time = 0.0;
    uint64_t seq = 0;
    uint64_t target = 0;  // pid (kWake/kTimeout) or callback slot index
    uint64_t epoch = 0;
    EventKind kind = EventKind::kWake;
  };

  /// Max-heap comparator yielding earliest (time, seq) at the heap root.
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  Process* FindProcess(uint64_t pid) const;
  void PushEvent(SimTime delay, uint64_t target, uint64_t epoch,
                 EventKind kind);
  void ScheduleWake(Process* p, SimTime delay, bool is_timeout,
                    uint64_t epoch);
  void ResumeProcess(Process* p);
  void YieldToScheduler(Process* p);
  void WakeNow(uint64_t pid);
  void FinishProcess(Process* p);
  /// Binds `p` to an idle (or new) pool worker at its first resume.
  void BindWorker(Process* p);
  /// Pool worker main loop: run each bound process body, then go idle.
  void WorkerMain(Worker* w);
  /// Frees a finished process's slot (and its fiber stack, if any).
  /// Called by the scheduler after resume.
  void ReapProcess(Process* p);
  /// Spawns the compute pool on the first pooled Offload.
  void EnsureOffloadPool();
  /// Pool-thread main loop: pop job, run closure, release its semaphore.
  void OffloadWorkerMain();
  /// Teardown: discard queued jobs, wait out in-flight closures, join the
  /// pool. Must complete before any process stack (which closures may
  /// reference) is unwound or freed.
  void DrainOffloadPool();
#if FSD_SIM_HAS_FIBERS
  /// Binds a pooled (or newly mapped) stack and builds the context for
  /// `p`'s first resume.
  void StartFiber(Process* p);
  /// Fiber entry point; the Process* is split across the two makecontext
  /// int arguments (the portable ucontext pointer-passing idiom).
  static void FiberTrampoline(unsigned int hi, unsigned int lo);
#endif

  SimTuning tuning_;
  /// Fiber tier actually in effect (tuning_.use_fibers gated on build
  /// support); when false, the pooled worker threads carry the handoffs.
  bool fibers_ = false;
#if FSD_SIM_HAS_FIBERS
  ucontext_t sched_context_;  // where fibers yield back to
  /// Stacks of reaped fibers, reused LIFO by the next StartFiber; the pool
  /// holds at most the peak number of concurrently live fibers.
  std::vector<FiberStack> free_stacks_;
#endif
  uint64_t fiber_stacks_mapped_ = 0;
  SimTime now_ = 0.0;
  uint64_t next_seq_ = 0;
  uint64_t next_pid_ = 1;
  int live_processes_ = 0;
  uint64_t events_dispatched_ = 0;
  std::vector<Event> events_;  // binary heap via std::push_heap/pop_heap
  /// Pid-indexed slots (pid - 1). Finished processes are released back to
  /// the null slot so a long trace replay holds only live ones.
  std::vector<std::unique_ptr<Process>> processes_;
  /// All worker threads ever created (joined at teardown); idle_workers_
  /// is the reuse stack.
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<Worker*> idle_workers_;
  /// Pooled callback storage: `Event::target` indexes callback_slots_;
  /// dispatched/freed slots recycle through free_slots_.
  std::vector<std::function<void()>> callback_slots_;
  std::vector<uint32_t> free_slots_;
  Process* running_ = nullptr;
  bool in_run_ = false;
  std::atomic<bool> tearing_down_{false};
  /// Compute-offload pool (null until the first pooled Offload) and the
  /// scheduler-thread-owned virtual counters.
  std::unique_ptr<OffloadPool> offload_pool_;
  uint64_t offload_calls_ = 0;
  double offload_virtual_s_ = 0.0;
};

/// Computes the virtual-time makespan of running `latencies` on `lanes`
/// parallel lanes (greedy list scheduling in submission order). Models a
/// worker's IPC thread pool without spawning simulation processes.
SimTime ParallelMakespan(const std::vector<SimTime>& latencies, int lanes);

}  // namespace fsd::sim

#endif  // FSD_SIM_SIMULATION_H_
