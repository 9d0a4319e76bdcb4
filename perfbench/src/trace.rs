//! The benchmark's own spans.
//!
//! Every public call the benchmark makes into the stack is timed here, in
//! both kinds of run: the timings are the end-to-end latencies. In a traced
//! run each timing is also kept as a span record (id, parent, name, start,
//! end, thread) in a per-thread buffer, and the buffers are written out as
//! one tab-separated file when the run ends. Nothing inside the program is
//! instrumented by this module.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed span.
#[derive(Clone, Copy)]
struct SpanRec {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    thread: u32,
}

/// Shared state of one run's trace.
pub struct Trace {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    next_thread: AtomicU64,
    done: Mutex<Vec<SpanRec>>,
}

impl Trace {
    /// A trace that records spans only when `on`.
    pub fn new(on: bool) -> Arc<Trace> {
        Arc::new(Trace {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            next_thread: AtomicU64::new(0),
            done: Mutex::new(Vec::new()),
        })
    }

    /// Whether spans are being kept.
    pub fn on(&self) -> bool {
        self.on
    }

    /// A recorder for one thread. Spans opened on it nest under `parent`
    /// (0 for a root).
    pub fn recorder(self: &Arc<Self>, parent: u64) -> Recorder {
        Recorder {
            trace: self.clone(),
            thread: self.next_thread.fetch_add(1, Ordering::Relaxed) as u32,
            stack: vec![parent],
            spans: Vec::new(),
        }
    }

    /// Write every span handed back by the recorders as
    /// `id parent thread name start_ns end_ns` lines, sorted by start.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let mut spans = self.done.lock().expect("trace buffer poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tthread\tname\tstart_ns\tend_ns")?;
        for s in &spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.thread, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

/// An open span; close it with [`Recorder::end`].
#[must_use]
pub struct Open {
    id: u64,
    name: &'static str,
    start: Instant,
}

/// Per-thread span buffer.
pub struct Recorder {
    trace: Arc<Trace>,
    thread: u32,
    stack: Vec<u64>,
    spans: Vec<SpanRec>,
}

impl Recorder {
    /// Whether this recorder keeps spans.
    pub fn traced(&self) -> bool {
        self.trace.on
    }

    /// The innermost open span (the parent of the next one).
    pub fn current(&self) -> u64 {
        *self.stack.last().expect("recorder stack never empties")
    }

    /// Open a span; spans opened before it is closed become its children.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let id = if self.trace.on {
            let id = self.trace.next_id.fetch_add(1, Ordering::Relaxed);
            self.stack.push(id);
            id
        } else {
            0
        };
        Open {
            id,
            name,
            start: Instant::now(),
        }
    }

    /// Close `open`, returning its duration in nanoseconds.
    pub fn end(&mut self, open: Open) -> u64 {
        let end = Instant::now();
        let ns = end.duration_since(open.start).as_nanos() as u64;
        if self.trace.on {
            self.stack.pop();
            let epoch = self.trace.epoch;
            self.spans.push(SpanRec {
                id: open.id,
                parent: self.current(),
                name: open.name,
                start_ns: open.start.duration_since(epoch).as_nanos() as u64,
                end_ns: end.duration_since(epoch).as_nanos() as u64,
                thread: self.thread,
            });
        }
        ns
    }

    /// Time one call as a span of its own.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let open = self.begin(name);
        let r = f();
        let ns = self.end(open);
        (r, ns)
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        if !self.spans.is_empty() {
            if let Ok(mut done) = self.trace.done.lock() {
                done.append(&mut self.spans);
            }
        }
    }
}
