//! The traced run's instruments. All of them live in the benchmark: they
//! wrap or attach to the program's public seams (`TraceSink`,
//! `CommitHook`, `Vfs`) and time the public calls the workloads make. The
//! untraced runs that give the end-to-end numbers use none of them.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use durable::Vfs;
use stm_core::hook::{CommitHook, WriteRecord};
use stm_core::trace::{TraceOp, TraceSink, TraceStamp};

/// The public calls the workloads time, one span slot each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    Contains,
    Add,
    Remove,
    AddAll,
    RemoveAll,
    Enqueue,
    Dequeue,
    Get,
    Set,
    Cas,
    Del,
    Multi,
}

impl Call {
    pub const ALL: [Call; 12] = [
        Call::Contains,
        Call::Add,
        Call::Remove,
        Call::AddAll,
        Call::RemoveAll,
        Call::Enqueue,
        Call::Dequeue,
        Call::Get,
        Call::Set,
        Call::Cas,
        Call::Del,
        Call::Multi,
    ];

    /// The per-layer metric this call's mean span is reported as.
    pub fn metric(self) -> &'static str {
        match self {
            Call::Contains => "cec.contains_us",
            Call::Add => "cec.add_us",
            Call::Remove => "cec.remove_us",
            Call::AddAll => "cec.add_all_us",
            Call::RemoveAll => "cec.remove_all_us",
            Call::Enqueue => "cec.enqueue_us",
            Call::Dequeue => "cec.dequeue_us",
            Call::Get => "txkv.get_us",
            Call::Set => "txkv.set_us",
            Call::Cas => "txkv.cas_us",
            Call::Del => "txkv.del_us",
            Call::Multi => "txkv.multi_us",
        }
    }
}

/// Per-thread span totals: calls and busy ns for each [`Call`], plus the
/// epoch-pin probe.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    calls: [u64; 12],
    ns: [u64; 12],
    pins: u64,
    pin_ns: u64,
}

impl Spans {
    /// Run `f` as one span of `call`.
    #[inline]
    pub fn time<R>(&mut self, call: Call, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.calls[call as usize] += 1;
        self.ns[call as usize] += t.elapsed().as_nanos() as u64;
        out
    }

    /// Time one `cec::arena::pin()` plus the guard's drop.
    #[inline]
    pub fn pin_probe(&mut self) {
        let t = Instant::now();
        drop(std::hint::black_box(cec::arena::pin()));
        self.pin_ns += t.elapsed().as_nanos() as u64;
        self.pins += 1;
    }

    pub fn merge(&mut self, o: &Spans) {
        for i in 0..self.calls.len() {
            self.calls[i] += o.calls[i];
            self.ns[i] += o.ns[i];
        }
        self.pins += o.pins;
        self.pin_ns += o.pin_ns;
    }

    /// Mean span of `call` in µs; 0 when the workload never makes it.
    pub fn mean_us(&self, call: Call) -> f64 {
        ratio(
            self.ns[call as usize] as f64 / 1e3,
            self.calls[call as usize] as f64,
        )
    }

    pub fn pin_mean_ns(&self) -> f64 {
        ratio(self.pin_ns as f64, self.pins as f64)
    }
}

/// Run `f`, as a span of `call` when the run is traced.
#[inline]
pub fn span<R>(spans: &mut Option<&mut Spans>, call: Call, f: impl FnOnce() -> R) -> R {
    match spans {
        Some(sp) => sp.time(call, f),
        None => f(),
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Cache-line padded counter, so the two clients do not share a line.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Padded(AtomicU64);

/// A `TraceSink` that only counts read and write events, striped by the
/// executing thread.
#[derive(Debug, Default)]
pub struct CountingSink {
    reads: [Padded; 4],
    writes: [Padded; 4],
}

impl CountingSink {
    pub fn reads(&self) -> u64 {
        self.reads.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }

    pub fn writes(&self) -> u64 {
        self.writes
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .sum()
    }

    pub fn reset(&self) {
        for c in self.reads.iter().chain(&self.writes) {
            c.0.store(0, Ordering::Relaxed);
        }
    }
}

impl TraceSink for CountingSink {
    fn reserve(&self) -> TraceStamp {
        TraceStamp(0)
    }
    fn begin(&self, _: TraceStamp, _: u64, _: u64) {}
    fn op(&self, _tx: u64, proc_id: u64, _loc: usize, op: TraceOp) {
        let stripe = (proc_id % 4) as usize;
        match op {
            TraceOp::Read(_) => self.reads[stripe].0.fetch_add(1, Ordering::Relaxed),
            TraceOp::Write(_) => self.writes[stripe].0.fetch_add(1, Ordering::Relaxed),
        };
    }
    fn acquire(&self, _: u64, _: u64, _: usize) {}
    fn release(&self, _: u64, _: u64, _: usize) {}
    fn commit(&self, _: u64, _: u64) {}
    fn abort(&self, _: u64, _: u64) {}
}

/// Calls and busy ns of one instrumented seam.
#[derive(Debug, Default)]
pub struct Timer {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Timer {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    pub fn reset(&self) {
        self.calls.store(0, Ordering::Relaxed);
        self.ns.store(0, Ordering::Relaxed);
    }

    pub fn mean_us(&self) -> f64 {
        ratio(
            self.ns.load(Ordering::Relaxed) as f64 / 1e3,
            self.calls.load(Ordering::Relaxed) as f64,
        )
    }
}

/// Times `DurableStore::hook()`, which runs with the write locks held.
pub struct TimedHook {
    pub inner: Arc<dyn CommitHook>,
    pub timer: Timer,
}

impl CommitHook for TimedHook {
    fn on_commit(&self, record: &WriteRecord<'_>) {
        self.timer.time(|| self.inner.on_commit(record));
    }
}

/// Times every `sync` and counts the bytes appended to the write-ahead log.
pub struct TimedVfs {
    pub inner: Arc<dyn Vfs>,
    pub fsync: Timer,
    pub wal_bytes: AtomicU64,
}

impl TimedVfs {
    pub fn new(inner: Arc<dyn Vfs>) -> Self {
        Self {
            inner,
            fsync: Timer::default(),
            wal_bytes: AtomicU64::new(0),
        }
    }

    pub fn reset(&self) {
        self.fsync.reset();
        self.wal_bytes.store(0, Ordering::Relaxed);
    }
}

impl Vfs for TimedVfs {
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.inner.read(name)
    }
    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        if name == durable::wal::WAL_FILE {
            self.wal_bytes
                .fetch_add(data.len() as u64, Ordering::Relaxed);
        }
        self.inner.append(name, data)
    }
    fn sync(&self, name: &str) -> io::Result<()> {
        self.fsync.time(|| self.inner.sync(name))
    }
    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }
    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }
    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(name, len)
    }
}
