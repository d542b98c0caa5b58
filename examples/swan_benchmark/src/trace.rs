//! Spans recorded from outside the engine: the benchmark wraps each call
//! into a layer's public function, keeps the spans in memory, and only
//! when a round is over computes per-layer self time and writes
//! `trace.jsonl`. Spans inside the engine are a later issue.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call. `parent` is 0 for a root; `op` groups the spans of one
/// operation (question or statement), 0 outside any operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. One thread — the closed loop's single client
/// — drives it through [`Tracer::scope`]; calls the engine fans out to
/// pool workers record through [`Tracer::leaf`] and hang under whatever
/// scope the client has open.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
    current: AtomicU64,
    op: AtomicU64,
    /// Off, every call just runs: `durable_mixed` traces every other
    /// block through wrappers that outlive the block.
    enabled: AtomicBool,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Tracer")
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            current: AtomicU64::new(0),
            op: AtomicU64::new(0),
            enabled: AtomicBool::new(true),
        }
    }
}

impl Tracer {
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span list lock: a recording thread panicked")
            .push(span);
    }

    /// Time `f` as a child of the open scope and make it the open scope
    /// while it runs. Client thread only.
    pub fn scope<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled.load(Ordering::Relaxed) {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.current.swap(id, Ordering::SeqCst);
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.current.store(parent, Ordering::SeqCst);
        self.push(Span {
            id,
            parent,
            op: self.op.load(Ordering::SeqCst),
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Time `f` as a childless child of the open scope. Any thread.
    pub fn leaf<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled.load(Ordering::Relaxed) {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.current.load(Ordering::SeqCst);
        let op = self.op.load(Ordering::SeqCst);
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Run one operation under a root span; every span opened inside
    /// carries `op`.
    pub fn op<T>(&self, op: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.op.store(op, Ordering::SeqCst);
        let out = self.scope(name, f);
        self.op.store(0, Ordering::SeqCst);
        out
    }

    /// Take the spans recorded so far, leaving the recorder empty.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span list lock: a recording thread panicked"),
        )
    }
}

/// `scope`, `leaf` and `op` for callers that may be running untraced.
pub fn scope<T>(t: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match t {
        Some(t) => t.scope(name, f),
        None => f(),
    }
}

pub fn leaf<T>(t: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match t {
        Some(t) => t.leaf(name, f),
        None => f(),
    }
}

pub fn op<T>(t: Option<&Tracer>, op: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
    match t {
        Some(t) => t.op(op, name, f),
        None => f(),
    }
}

/// `scope`, returning how long `f` took in seconds as well.
pub fn timed<T>(t: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = scope(t, name, f);
    (out, start.elapsed().as_secs_f64())
}

/// What one span name adds up to over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Layer {
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times: duration minus the part child spans cover.
    pub self_ns: u64,
    /// Wall-clock covered by at least one span of this name; `total_ns`
    /// over this is how far calls overlapped.
    pub union_ns: u64,
}

impl Layer {
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 / 1e9
    }
}

pub type Layers = BTreeMap<&'static str, Layer>;

/// Length of the union of `[start, end)` intervals.
fn union_len(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let (mut covered, mut open_until) = (0u64, 0u64);
    for (s, e) in iv {
        let s = s.max(open_until);
        if e > s {
            covered += e - s;
            open_until = e;
        }
    }
    covered
}

/// Per-name totals and self times. Fails when the spans do not form
/// well-nested trees, or when a tree's self times do not add up to its
/// root: the sum must equal the root's duration plus the time sibling
/// spans spent overlapping each other (zero for a serial tree).
pub fn layers(spans: &[Span]) -> Result<Layers, String> {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {} `{}` ends before it starts", s.id, s.name));
        }
        if s.parent != 0 {
            let p = &spans[*index
                .get(&s.parent)
                .ok_or_else(|| format!("span {} `{}` has an unknown parent", s.id, s.name))?];
            if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
                return Err(format!(
                    "span {} `{}` leaves its parent `{}`",
                    s.id, s.name, p.name
                ));
            }
            children.entry(s.parent).or_default().push(i);
        }
    }

    let mut out = Layers::new();
    let mut self_of = vec![0u64; spans.len()];
    let mut overlap_of = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        let covered = union_len(
            kids.iter()
                .map(|&k| (spans[k].start_ns, spans[k].end_ns))
                .collect(),
        );
        self_of[i] = s.dur() - covered;
        overlap_of[i] = kids.iter().map(|&k| spans[k].dur()).sum::<u64>() - covered;
        let l = out.entry(s.name).or_default();
        l.count += 1;
        l.total_ns += s.dur();
        l.self_ns += self_of[i];
    }
    for (name, l) in out.iter_mut() {
        l.union_ns = union_len(
            spans
                .iter()
                .filter(|s| s.name == *name)
                .map(|s| (s.start_ns, s.end_ns))
                .collect(),
        );
    }

    // Sum each tree bottom-up (children always close before parents, so
    // they sit earlier in the list).
    let mut tree_self = self_of.clone();
    let mut tree_overlap = overlap_of;
    for (i, s) in spans.iter().enumerate() {
        if s.parent != 0 {
            let p = index[&s.parent];
            if p < i {
                return Err(format!(
                    "span {} `{}` closed after its parent",
                    s.id, s.name
                ));
            }
            tree_self[p] += tree_self[i];
            tree_overlap[p] += tree_overlap[i];
        }
    }
    for (i, s) in spans.iter().enumerate() {
        if s.parent == 0 && tree_self[i] != s.dur() + tree_overlap[i] {
            return Err(format!(
                "root span {} `{}`: self times sum to {} ns, expected {} + {} overlap",
                s.id,
                s.name,
                tree_self[i],
                s.dur(),
                tree_overlap[i]
            ));
        }
    }
    Ok(out)
}

/// Add `b` into `a`, name by name.
pub fn merge(a: &mut Layers, b: &Layers) {
    for (name, l) in b {
        let t = a.entry(name).or_default();
        t.count += l.count;
        t.total_ns += l.total_ns;
        t.self_ns += l.self_ns;
        t.union_ns += l.union_ns;
    }
}

/// `trace.jsonl`: a header object, then one span object per line.
pub fn to_jsonl(header: &str, spans: &[Span]) -> String {
    let mut s = String::with_capacity(64 + spans.len() * 96);
    s.push_str(header);
    s.push('\n');
    for sp in spans {
        // Names are this crate's own literals: no escaping needed.
        let _ = writeln!(
            s,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            sp.id, sp.parent, sp.op, sp.name, sp.start_ns, sp.end_ns
        );
    }
    s
}

/// Start-up self-check: self time on a synthetic tree with one serial
/// and one overlapping pair of children.
pub fn self_check() -> Result<(), String> {
    let sp = |id, parent, name, start_ns, end_ns| Span {
        id,
        parent,
        op: 1,
        name,
        start_ns,
        end_ns,
    };
    // root 0..100; a 10..40 (with leaf 20..30); b and c overlap on 60..70.
    let spans = vec![
        sp(3, 2, "leaf", 20, 30),
        sp(2, 1, "a", 10, 40),
        sp(4, 1, "b", 50, 70),
        sp(5, 1, "c", 60, 90),
        sp(1, 0, "root", 0, 100),
    ];
    let l = layers(&spans)?;
    let want = [
        ("root", 100, 30, 100),
        ("a", 30, 20, 30),
        ("leaf", 10, 10, 10),
        ("b", 20, 20, 20),
        ("c", 30, 30, 30),
    ];
    for (name, total, self_ns, union) in want {
        let got = l.get(name).copied().unwrap_or_default();
        if (got.total_ns, got.self_ns, got.union_ns) != (total, self_ns, union) {
            return Err(format!("trace: layer `{name}` is {got:?}"));
        }
    }
    if layers(&[sp(2, 1, "a", 10, 120), sp(1, 0, "root", 0, 100)]).is_ok() {
        return Err("trace: a child that outlives its parent was accepted".into());
    }

    let t = Tracer::default();
    t.op(7, "op", || {
        t.scope("outer", || t.leaf("inner", || ()));
    });
    let got = t.drain();
    let shape: Vec<_> = got.iter().map(|s| (s.name, s.parent, s.op)).collect();
    let (inner, outer, root) = (&got[0], &got[1], &got[2]);
    if shape != [("inner", outer.id, 7), ("outer", root.id, 7), ("op", 0, 7)]
        || inner.id == outer.id
    {
        return Err(format!("trace: recorder produced {shape:?}"));
    }
    layers(&got).map(|_| ())
}
