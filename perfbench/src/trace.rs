//! The benchmark's own span recorder: one span around each call the
//! benchmark makes into a layer of the program.
//!
//! Every call is counted (attempted / failed) whether or not tracing is
//! on. With tracing on, each call also records its host start and end,
//! the calling thread's CPU time inside it, its virtual start and end
//! (for calls a simulated rank makes) and its parent span. Spans are kept
//! in memory and written out when the run ends.

use crate::sys::thread_cpu_ns;
use simcore::{ProcCtx, VTime};
use std::convert::Infallible;
use std::io::Write;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The program's layers, by crate name, plus the benchmark's own root.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Bench,
    Cluster,
    Nvmalloc,
    Workloads,
}

impl Layer {
    pub fn as_str(self) -> &'static str {
        match self {
            Layer::Bench => "perfbench",
            Layer::Cluster => "cluster",
            Layer::Nvmalloc => "nvmalloc",
            Layer::Workloads => "workloads",
        }
    }
}

/// One closed span. Host times are ns since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub layer: Layer,
    pub name: &'static str,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    /// CPU time of the calling thread between start and end. For a call
    /// that passes the engine's baton to other ranks, the wall time it
    /// waited shows as `host - cpu`.
    pub cpu_ns: u64,
    /// Virtual start and end, for calls made by a simulated rank.
    pub vt: Option<(VTime, VTime)>,
    pub ok: bool,
}

impl Span {
    pub fn host_ns(&self) -> u64 {
        self.host_end_ns - self.host_start_ns
    }
}

/// A span opened with [`Tracer::open`], closed with [`Tracer::close`].
pub struct Open {
    id: u32,
    parent: Option<u32>,
    host_start_ns: u64,
    cpu_start_ns: u64,
}

impl Open {
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// Counts every call; records spans when enabled.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    attempted: AtomicU64,
    failed: AtomicU64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
            attempted: AtomicU64::new(0),
            failed: AtomicU64::new(0),
        }
    }

    /// Host ns since the recorder was created.
    pub fn host_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    /// Count a call that is not made through [`Tracer::try_call`].
    pub fn count(&self, ok: bool) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Open a span that closes later (a phase or a long host-side call).
    pub fn open(&self, parent: Option<u32>) -> Open {
        if !self.on {
            return Open {
                id: 0,
                parent,
                host_start_ns: 0,
                cpu_start_ns: 0,
            };
        }
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            host_start_ns: self.host_ns(),
            cpu_start_ns: thread_cpu_ns(),
        }
    }

    pub fn close(&self, open: Open, layer: Layer, name: &'static str, ok: bool) {
        self.close_vt(open, layer, name, None, ok);
    }

    fn close_vt(
        &self,
        open: Open,
        layer: Layer,
        name: &'static str,
        vt: Option<(VTime, VTime)>,
        ok: bool,
    ) {
        if !self.on {
            return;
        }
        let span = Span {
            id: open.id,
            parent: open.parent,
            layer,
            name,
            host_start_ns: open.host_start_ns,
            host_end_ns: self.host_ns(),
            cpu_ns: thread_cpu_ns().saturating_sub(open.cpu_start_ns),
            vt,
            ok,
        };
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// A fallible call by a simulated rank: counted, and recorded as a
    /// span when tracing is on. An `Err` counts as failed and reads
    /// `None`; it never panics the run.
    pub fn try_call<T, E>(
        &self,
        ctx: &mut ProcCtx,
        parent: u32,
        layer: Layer,
        name: &'static str,
        f: impl FnOnce(&mut ProcCtx) -> Result<T, E>,
    ) -> Option<T> {
        let open = self.open(Some(parent));
        let vt0 = ctx.now();
        let r = f(ctx);
        let ok = r.is_ok();
        self.close_vt(open, layer, name, Some((vt0, ctx.now())), ok);
        self.count(ok);
        r.ok()
    }

    /// An infallible call by a simulated rank.
    pub fn call<T>(
        &self,
        ctx: &mut ProcCtx,
        parent: u32,
        layer: Layer,
        name: &'static str,
        f: impl FnOnce(&mut ProcCtx) -> T,
    ) -> T {
        match self.try_call(ctx, parent, layer, name, |c| Ok::<T, Infallible>(f(c))) {
            Some(v) => v,
            None => unreachable!("infallible call failed"),
        }
    }

    /// Take the recorded spans, in close order.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span list poisoned"))
    }
}

/// Host ns of `[start, end)` covered by the union of `intervals`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut cursor) = (0u64, start);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time of every span: its host duration minus the part of it that
/// its children's spans cover. Indexed like `spans`.
fn self_host_ns(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<u32, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            children[p].push((s.host_start_ns, s.host_end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.host_ns() - covered_ns(s.host_start_ns, s.host_end_ns, kids))
        .collect()
}

/// Write spans as JSON lines: one object per span, ids unique per run.
pub fn write_spans(out: &mut impl Write, run: u32, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_host_ns(spans);
    for (s, self_ns) in spans.iter().zip(selfs) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let vt = match s.vt {
            Some((a, b)) => format!(
                r#","vt_start_ns":{},"vt_end_ns":{}"#,
                a.as_nanos(),
                b.as_nanos()
            ),
            None => String::new(),
        };
        writeln!(
            out,
            r#"{{"run":{run},"id":{},"parent":{parent},"layer":"{}","name":"{}","host_start_ns":{},"host_end_ns":{},"self_ns":{self_ns},"cpu_ns":{}{vt},"ok":{}}}"#,
            s.id,
            s.layer.as_str(),
            s.name,
            s.host_start_ns,
            s.host_end_ns,
            s.cpu_ns,
            s.ok
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            layer: Layer::Bench,
            name: "t",
            host_start_ns: start,
            host_end_ns: end,
            cpu_ns: 0,
            vt: None,
            ok: true,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Root 0..100 with overlapping children 10..40 and 30..60 and a
        // disjoint child 80..90: the children cover 60 ns.
        let spans = vec![
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60),
            span(3, Some(0), 80, 90),
            span(0, None, 0, 100),
        ];
        assert_eq!(self_host_ns(&spans), vec![30, 30, 10, 40]);
    }

    #[test]
    fn counting_works_with_tracing_off() {
        let t = Tracer::new(false);
        t.count(true);
        t.count(false);
        assert_eq!((t.attempted(), t.failed()), (2, 1));
        let open = t.open(None);
        t.close(open, Layer::Bench, "x", true);
        assert!(t.take_spans().is_empty());
    }
}
