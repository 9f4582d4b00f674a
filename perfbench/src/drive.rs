//! The open-loop generator: one thread, a fixed schedule, and an answer
//! time stamped the moment the client library resolves each session.
//!
//! Each session's [`Handle`] is polled once with a recording
//! [`Waker`]; the client's IO thread wakes it when the answer arrives,
//! and the waker stamps the time. Latency is measured from the
//! session's *due* time, so a stall that delays later submissions is
//! charged to them.

use crate::procfs;
use crate::stats::Lateness;
use crate::workload::Op;
use qbc_cluster::{Outcome, ReactorCluster};
use qbc_simnet::SiteId;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

/// Answer times of one phase, written by the client's IO thread.
struct Board {
    t0: Instant,
    /// Nanoseconds since `t0`; 0 while unanswered.
    answered_ns: Vec<AtomicU64>,
    answered: AtomicUsize,
}

impl Board {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn stamp(&self, idx: usize) {
        let ns = self.now_ns().max(1);
        // Relaxed: the stamp publishes nothing but itself; the outcome
        // is read back through the client's own lock.
        if self.answered_ns[idx]
            .compare_exchange(0, ns, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            self.answered.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The recording waker of one session.
struct Stamp {
    board: Arc<Board>,
    idx: usize,
}

impl Wake for Stamp {
    fn wake(self: Arc<Self>) {
        self.board.stamp(self.idx);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.board.stamp(self.idx);
    }
}

/// How one phase is driven.
pub struct PhaseSpec<'a> {
    /// The operations, in submission order.
    pub ops: &'a [Op],
    /// Arrival rate in sessions per second.
    pub rate: f64,
    /// Kill this site just before submitting session `.0`.
    pub kill_at: Option<(usize, SiteId)>,
    /// Sample the server's in-flight gauge and time submit calls.
    pub traced: bool,
}

/// One session's record.
#[derive(Clone, Copy, Debug)]
pub struct SessionRec {
    /// Due time, ns since phase start.
    pub due_ns: u64,
    /// Answer time, ns since phase start; `None` if never answered.
    pub answer_ns: Option<u64>,
    /// The definite outcome; `None` if never answered.
    pub outcome: Option<Outcome>,
}

impl SessionRec {
    /// Due-to-answer latency in milliseconds.
    pub fn latency_ms(&self) -> Option<f64> {
        self.answer_ns
            .map(|a| a.saturating_sub(self.due_ns) as f64 / 1e6)
    }
}

/// What a phase measured.
pub struct PhaseOut {
    /// One record per session, in submission order.
    pub sessions: Vec<SessionRec>,
    /// How late the generator ran against the schedule.
    pub lateness: Lateness,
    /// Process CPU (user + system) over the phase, seconds.
    pub process_cpu_s: f64,
    /// Per-thread CPU over the phase, seconds, keyed by thread name.
    pub thread_cpu_s: Vec<(String, f64)>,
    /// `(t_ns, sessions in flight)` samples of the server gauge (traced
    /// phases only).
    pub in_flight: Vec<(u64, f64)>,
    /// Total time spent inside `submit`/`snapshot_read`, ns (traced
    /// phases only).
    pub submit_call_ns: u64,
    /// When the phase killed a site, ns since phase start.
    pub killed_at_ns: Option<u64>,
}

impl PhaseOut {
    /// First due time to last answer, seconds.
    pub fn span_s(&self) -> f64 {
        let last = self
            .sessions
            .iter()
            .filter_map(|s| s.answer_ns)
            .max()
            .unwrap_or(0);
        let first = self.sessions.first().map_or(0, |s| s.due_ns);
        last.saturating_sub(first) as f64 / 1e9
    }
}

/// Closer than this to a due time the generator spins instead of
/// sleeping.
const SPIN_NS: u64 = 20_000;
/// Lead time between building the schedule and its first due time.
const LEAD_NS: u64 = 1_000_000;
/// Give up on a phase's answers this long after its last due time.
const ANSWER_DEADLINE: Duration = Duration::from_secs(30);

/// Runs one phase against `cluster` and waits for every answer (or the
/// deadline).
pub fn run_phase(cluster: &ReactorCluster, spec: &PhaseSpec<'_>) -> PhaseOut {
    let n = spec.ops.len();
    let board = Arc::new(Board {
        t0: Instant::now(),
        answered_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
        answered: AtomicUsize::new(0),
    });
    // Wakers are built before the clock starts: polling clones them,
    // which only bumps a reference count.
    let wakers: Vec<Waker> = (0..n)
        .map(|idx| {
            Waker::from(Arc::new(Stamp {
                board: Arc::clone(&board),
                idx,
            }))
        })
        .collect();
    let due: Vec<u64> = (0..n)
        .map(|i| LEAD_NS + (i as f64 * 1e9 / spec.rate) as u64)
        .collect();
    let mut handles = Vec::with_capacity(n);
    let mut ready: Vec<Option<Outcome>> = vec![None; n];
    let mut lateness = Lateness::default();
    let mut in_flight = Vec::new();
    let mut submit_call_ns = 0u64;
    let mut killed_at_ns = None;
    let mut last_sample = 0u64;
    let mut sample = |force: bool| {
        let now = board.now_ns();
        if force || now >= last_sample + 1_000_000 {
            last_sample = now;
            in_flight.push((now, cluster.server_stats().sessions_in_flight as f64));
        }
    };

    // Punctual sleeps: the default 50 µs slack would add to every
    // latency measured from the due time.
    set_timer_slack_ns(1);
    let cpu0 = procfs::process_cpu_s();
    let threads0 = procfs::thread_cpu_s();
    for (i, op) in spec.ops.iter().enumerate() {
        loop {
            let now = board.now_ns();
            if now + SPIN_NS >= due[i] {
                break;
            }
            if spec.traced {
                sample(false);
            }
            std::thread::sleep(Duration::from_nanos(due[i] - now));
        }
        if let Some((at, site)) = spec.kill_at {
            if at == i {
                killed_at_ns = Some(board.now_ns());
                cluster.kill_site(site);
            }
        }
        while board.now_ns() < due[i] {
            std::hint::spin_loop();
        }
        let sent = board.now_ns();
        lateness.record(due[i], sent);
        let mut handle = match op {
            Op::Write(writes) => cluster.submit(writes.clone()),
            Op::Read(item) => cluster.snapshot_read(*item),
        };
        if spec.traced {
            submit_call_ns += board.now_ns() - sent;
        }
        let mut cx = Context::from_waker(&wakers[i]);
        if let Poll::Ready(outcome) = Pin::new(&mut handle).poll(&mut cx) {
            board.stamp(i);
            ready[i] = Some(outcome);
        }
        handles.push(handle);
    }

    let deadline = board.now_ns() + ANSWER_DEADLINE.as_nanos() as u64;
    while board.answered.load(Ordering::Relaxed) < n && board.now_ns() < deadline {
        if spec.traced {
            sample(false);
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    if spec.traced {
        sample(true);
    }
    let process_cpu_s = procfs::process_cpu_s() - cpu0;
    let thread_cpu_s = procfs::thread_cpu_delta(&threads0, &procfs::thread_cpu_s());

    let sessions = handles
        .into_iter()
        .enumerate()
        .map(|(i, handle)| {
            let answer_ns = match board.answered_ns[i].load(Ordering::Relaxed) {
                0 => None,
                ns => Some(ns),
            };
            // A stamped session is resolved, so `wait` returns at once;
            // an unanswered handle is dropped, abandoning its session.
            let outcome = ready[i].or_else(|| answer_ns.map(|_| handle.wait()));
            SessionRec {
                due_ns: due[i],
                answer_ns,
                outcome,
            }
        })
        .collect();
    PhaseOut {
        sessions,
        lateness,
        process_cpu_s,
        thread_cpu_s,
        in_flight,
        submit_call_ns,
        killed_at_ns,
    }
}

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

/// Asks the kernel to wake this thread's sleeps within `ns` of their
/// deadline (the default slack is 50 µs).
fn set_timer_slack_ns(ns: u64) {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // only changes the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, ns as std::ffi::c_ulong);
    }
}
