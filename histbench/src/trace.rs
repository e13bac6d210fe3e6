//! In-memory spans around the benchmark's calls into the system.
//!
//! A span records one call the benchmark makes into a layer's public API
//! (or one of the benchmark's own phases, layer `bench`): its name, start,
//! end, parent span and request id. Each load thread records into its own
//! [`Recorder`] and hands the spans to the shared [`Tracer`] when it is
//! dropped, so recording takes no lock on the hot path. Spans are kept
//! in memory and written out once, at the end of the run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Enclosing span's id; 0 for a root span.
    pub parent: u64,
    /// Request the span belongs to (frame, query or phase number).
    pub req: u64,
    pub thread: u32,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// The run's span sink. Recording is on only while [`Tracer::set_on`]
/// says so; a span opened while it is off is not recorded.
pub struct Tracer {
    epoch: Instant,
    on: AtomicBool,
    next_id: AtomicU64,
    next_thread: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            on: AtomicBool::new(on),
            next_id: AtomicU64::new(1),
            next_thread: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::SeqCst)
    }

    /// A per-thread recorder feeding this tracer.
    pub fn recorder(&self) -> Recorder<'_> {
        Recorder {
            tracer: self,
            thread: self.next_thread.fetch_add(1, Ordering::Relaxed),
            stack: Vec::new(),
            done: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, ordered by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span sink poisoned").clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }

    /// Write the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"thread\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.req, s.thread, s.layer, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

struct Open {
    id: u64,
    parent: u64,
    req: u64,
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
}

/// One thread's span recorder. Nesting follows the call stack: a span
/// opened while another is open on this recorder becomes its child.
pub struct Recorder<'a> {
    tracer: &'a Tracer,
    thread: u32,
    /// Open spans; `None` for one opened while recording was off.
    stack: Vec<Option<Open>>,
    done: Vec<Span>,
}

impl Recorder<'_> {
    /// Open a span; pair with [`Recorder::close`].
    pub fn open(&mut self, layer: &'static str, name: &'static str, req: u64) {
        if !self.tracer.is_on() {
            self.stack.push(None);
            return;
        }
        let parent = self.stack.iter().rev().flatten().next().map_or(0, |o| o.id);
        let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.tracer.now_ns();
        self.stack.push(Some(Open { id, parent, req, layer, name, start_ns }));
    }

    pub fn close(&mut self) {
        if let Some(Some(o)) = self.stack.pop() {
            self.done.push(Span {
                id: o.id,
                parent: o.parent,
                req: o.req,
                thread: self.thread,
                layer: o.layer,
                name: o.name,
                start_ns: o.start_ns,
                end_ns: self.tracer.now_ns(),
            });
        }
    }

    /// Run `f` inside a span.
    pub fn call<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        self.open(layer, name, req);
        let r = f();
        self.close();
        r
    }
}

impl Drop for Recorder<'_> {
    fn drop(&mut self) {
        while !self.stack.is_empty() {
            self.close();
        }
        if let Ok(mut sink) = self.tracer.spans.lock() {
            sink.append(&mut self.done);
        }
    }
}

/// Self time per layer, in seconds: each span's duration minus the time
/// its child spans cover (children run on the parent's thread, so they
/// never overlap each other).
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *out.entry(s.layer).or_default() += own as f64 / 1e9;
    }
    out
}

/// Summed duration of spans named `name`, and their count.
pub fn total(spans: &[Span], name: &str) -> (f64, usize) {
    spans.iter().filter(|s| s.name == name).fold((0.0, 0), |(t, n), s| (t + s.secs(), n + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_off_spans_vanish() {
        let t = Tracer::new(true);
        {
            let mut r = t.recorder();
            r.open("bench", "phase", 1);
            r.call("core", "sql", 1, || std::thread::sleep(std::time::Duration::from_millis(5)));
            r.close();
            t.set_on(false);
            r.call("core", "sql", 2, || ());
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let phase = spans.iter().find(|s| s.name == "phase").unwrap();
        let sql = spans.iter().find(|s| s.name == "sql").unwrap();
        assert_eq!(sql.parent, phase.id);
        let by_layer = self_time_by_layer(&spans);
        assert!(by_layer["core"] >= 0.005);
        assert!(by_layer["bench"] < phase.secs());
    }
}
