//! The benchmark's own span recorder: spans are kept in memory while the
//! traced run executes and written out as Chrome trace-event JSON (the
//! shape the daemon's flight recorder emits for `?format=chrome`) when it
//! ends. Spans of one request share a request id.

use pcservice::json::Json;
use std::sync::Mutex;

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub request: u64,
    pub tid: usize,
    /// Seconds since the recorder's phase began.
    pub start: f64,
    pub end: f64,
}

#[derive(Default)]
pub struct Recorder {
    spans: Mutex<Vec<SpanRec>>,
}

impl Recorder {
    /// Request ids: the phase, then the connection, then the position.
    pub fn request_id(&self, conn: usize, index: usize) -> u64 {
        ((conn as u64) << 40) | index as u64
    }

    pub fn span(&self, name: &'static str, request: u64, tid: usize, start: f64, end: f64) {
        self.spans.lock().expect("span buffer").push(SpanRec {
            name,
            request,
            tid,
            start,
            end,
        });
    }

    pub fn take(&self) -> Vec<SpanRec> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer"))
    }
}

/// Chrome trace-event JSON: one complete (`ph: "X"`) event per span.
/// `pid` separates the live load (1) from the in-process replay (2).
pub fn chrome_json(groups: &[(u64, &[SpanRec])]) -> Json {
    let mut events = Vec::new();
    for (pid, spans) in groups {
        for s in spans.iter() {
            events.push(Json::obj(vec![
                ("ph", Json::str("X")),
                ("ts", Json::Num((s.start * 1e6).round())),
                ("dur", Json::Num(((s.end - s.start) * 1e6).round().max(0.0))),
                ("name", Json::str(s.name)),
                ("pid", Json::num(*pid)),
                ("tid", Json::num(s.tid as u64)),
                (
                    "args",
                    Json::obj(vec![("request_id", Json::str(format!("{:x}", s.request)))]),
                ),
            ]));
        }
    }
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ])
}
