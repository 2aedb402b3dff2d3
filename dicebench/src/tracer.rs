//! The traced run's in-memory recorder.
//!
//! Spans mark request, HTTP-call, sweep, cell and `System::run`
//! boundaries; each carries the id of the request (or sweep) it belongs
//! to and a link to its parent span. Call boundaries inside the
//! simulator are far too frequent for one span each, so they keep a count
//! and a summed duration instead. Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use dice_obs::Json;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// This span's id (1-based; 0 means "no parent").
    pub id: u64,
    /// The enclosing span, or 0.
    pub parent: u64,
    /// The request or sweep this span belongs to.
    pub trace_id: u64,
    /// Boundary name (`request`, `http.post`, `sweep`, `cell`, ...).
    pub name: String,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    next_id: u64,
}

/// Records spans and call-boundary counters. Shared by reference across
/// the load generator's connection threads.
pub struct Tracer {
    origin: Instant,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The recorder-relative time of `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Reserves a span id (so children can link to a span that is still
    /// open).
    pub fn reserve(&self) -> u64 {
        let mut s = self.state.lock().expect("tracer lock poisoned");
        s.next_id += 1;
        s.next_id
    }

    /// Records a closed span under a reserved `id`.
    pub fn close(
        &self,
        id: u64,
        parent: u64,
        trace_id: u64,
        name: &str,
        start_ns: u64,
        end_ns: u64,
    ) {
        let span = Span {
            id,
            parent,
            trace_id,
            name: name.to_owned(),
            start_ns,
            end_ns: end_ns.max(start_ns),
        };
        self.state
            .lock()
            .expect("tracer lock poisoned")
            .spans
            .push(span);
    }

    /// Records a closed span, returning its id.
    pub fn record(
        &self,
        parent: u64,
        trace_id: u64,
        name: &str,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.reserve();
        self.close(id, parent, trace_id, name, start_ns, end_ns);
        id
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.state
            .lock()
            .expect("tracer lock poisoned")
            .spans
            .clone()
    }

    /// The trace as a Chrome trace-event document (`ph:"X"` events,
    /// microsecond timestamps; span and parent ids in `args`), plus the
    /// call-boundary counters.
    pub fn to_json(&self, counters: &Counters) -> Json {
        let events = self
            .spans()
            .into_iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::str(&s.name)),
                    ("ph".into(), Json::str("X")),
                    ("ts".into(), Json::num(s.start_ns as f64 / 1e3)),
                    (
                        "dur".into(),
                        Json::num((s.end_ns - s.start_ns) as f64 / 1e3),
                    ),
                    ("pid".into(), Json::u64(1)),
                    ("tid".into(), Json::u64(s.trace_id)),
                    (
                        "args".into(),
                        Json::Obj(vec![
                            ("id".into(), Json::u64(s.id)),
                            ("parent".into(), Json::u64(s.parent)),
                        ]),
                    ),
                ])
            })
            .collect();
        let counters = counters
            .map
            .iter()
            .map(|(name, c)| {
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("calls".into(), Json::u64(c.calls)),
                        ("ns".into(), Json::u64(c.ns)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("traceEvents".into(), Json::Arr(events)),
            ("counters".into(), Json::Obj(counters)),
        ])
    }
}

/// A call boundary's tally.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counter {
    /// Calls made.
    pub calls: u64,
    /// Summed self time in nanoseconds.
    pub ns: u64,
}

/// Named call-boundary counters, merged across the sampled cells.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    map: BTreeMap<String, Counter>,
}

impl Counters {
    /// Adds `calls` calls taking `ns` in total to `name`.
    pub fn add(&mut self, name: &str, calls: u64, ns: u64) {
        let c = self.map.entry(name.to_owned()).or_default();
        c.calls += calls;
        c.ns += ns;
    }
}
