//! A generic server-sent-events pump over chunked transfer encoding,
//! shared by `dice-serve`'s job stream and the fabric coordinator's
//! scatter/gather progress fan-in.
//!
//! The pump owns the socket for the stream's lifetime: it blocks in a
//! caller-supplied wait function until the job has new events or a
//! terminal state, writes each new event as a `data: …\n\n` chunk, emits
//! a comment heartbeat whenever a wait times out idle (keeping the
//! connection visibly alive under the 5 s socket write timeout), and
//! closes the chunked stream with a terminal `{"event":"end"}` record
//! once the job reaches a terminal state. Both job tables implement the
//! wait with [`wait_events`]: a `Condvar` paired with the table's mutex,
//! notified on every event push and state change.

use std::io::Write;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use dice_obs::Json;

use crate::http::{finish_chunks, write_chunk, write_stream_head, Response};
use crate::jobs::JobState;

/// Hard wall-clock cap on one event stream.
const STREAM_DEADLINE: Duration = Duration::from_secs(600);
/// Idle interval between comment heartbeats.
const HEARTBEAT: Duration = Duration::from_secs(2);

/// A job's events past a cursor plus its state, as one SSE wait sees
/// them.
pub type EventsSince = (Vec<Arc<String>>, JobState);

/// Streams events to `out` until the job reaches a terminal state (or
/// the client goes away). `wait(cursor, timeout)` blocks until the job
/// has events at or past `cursor` or a terminal state, or until
/// `timeout` passes, then returns those events and the state (read
/// atomically, so a terminal state means the returned slice completes
/// the stream); it returns `None` only if the job is unknown, which
/// answers `404`. The pump passes the time left until the next heartbeat
/// as the timeout, so a wait that returns no events is a heartbeat.
/// Returns the status code to record.
pub fn stream_sse(
    out: &mut impl Write,
    wait: impl Fn(usize, Duration) -> Option<EventsSince>,
) -> u16 {
    if wait(0, Duration::ZERO).is_none() {
        let _ = Response::error(404, "no such job").write(out);
        return 404;
    }
    if write_stream_head(out, "text/event-stream").is_err() {
        return 200;
    }
    let mut cursor = 0usize;
    let deadline = Instant::now() + STREAM_DEADLINE;
    while let Some((events, state)) = wait(
        cursor,
        HEARTBEAT.min(deadline.saturating_duration_since(Instant::now())),
    ) {
        cursor += events.len();
        for event in &events {
            if write_chunk(out, format!("data: {event}\n\n").as_bytes()).is_err() {
                return 200;
            }
        }
        if state.is_terminal() {
            let end = Json::Obj(vec![
                ("event".into(), Json::str("end")),
                ("state".into(), Json::str(state.as_str())),
            ])
            .render();
            let _ = write_chunk(out, format!("data: {end}\n\n").as_bytes());
            break;
        }
        if Instant::now() > deadline {
            break;
        }
        if events.is_empty() && write_chunk(out, b": heartbeat\n\n").is_err() {
            return 200;
        }
    }
    let _ = finish_chunks(out);
    200
}

/// The blocking wait behind [`stream_sse`] for a job table guarded by
/// `table` whose every event push and state change notifies `changed`.
/// `view` finds the job in the table (its event log and state); the wait
/// returns once the job has events past `cursor`, reaches a terminal
/// state or disappears, or `timeout` passes.
pub fn wait_events<T>(
    table: &Mutex<T>,
    changed: &Condvar,
    cursor: usize,
    timeout: Duration,
    view: impl Fn(&T) -> Option<(&[Arc<String>], JobState)>,
) -> Option<EventsSince> {
    let guard = table.lock().expect("job table poisoned");
    let (guard, _) = changed
        .wait_timeout_while(guard, timeout, |t| {
            view(t).is_some_and(|(events, state)| events.len() <= cursor && !state.is_terminal())
        })
        .expect("job table poisoned");
    let (events, state) = view(&guard)?;
    Some((events.get(cursor..).unwrap_or_default().to_vec(), state))
}

/// Splits a raw SSE body into its `data:` payload lines (heartbeat
/// comments and blank separators dropped) — the inverse of the pump's
/// framing, shared by tests and the coordinator's progress fan-in.
#[must_use]
pub fn sse_data_lines(body: &str) -> Vec<String> {
    body.lines()
        .filter_map(|l| l.strip_prefix("data: "))
        .map(str::to_owned)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_subject_is_404() {
        let mut out = Vec::new();
        let status = stream_sse(&mut out, |_, _| None);
        assert_eq!(status, 404);
        assert!(String::from_utf8_lossy(&out).contains("no such job"));
    }

    #[test]
    fn streams_events_then_end_record() {
        // Two wait rounds after the 404 probe: the first returns one
        // event while running, the second one more event plus `done`.
        let round = Mutex::new(0usize);
        let mut out = Vec::new();
        let status = stream_sse(&mut out, |cursor, _| {
            let mut round = round.lock().expect("round");
            *round += 1;
            let all = [
                Arc::new("{\"n\":1}".to_owned()),
                Arc::new("{\"n\":2}".to_owned()),
            ];
            let visible = if *round <= 2 { 1 } else { 2 };
            let events = all[cursor.min(visible)..visible].to_vec();
            let state = if *round >= 3 {
                JobState::Done
            } else {
                JobState::Running
            };
            Some((events, state))
        });
        assert_eq!(status, 200);
        let text = String::from_utf8_lossy(&out);
        let data = sse_data_lines(&text);
        assert_eq!(
            data,
            vec![
                "{\"n\":1}",
                "{\"n\":2}",
                "{\"event\":\"end\",\"state\":\"done\"}"
            ]
        );
        assert!(!text.contains("heartbeat"));
        assert!(text.ends_with("0\r\n\r\n"));
    }

    #[test]
    fn an_idle_wait_is_a_heartbeat_and_end_still_closes() {
        // The wait after the 404 probe times out idle (no events, still
        // running); the next one reports the job cancelled.
        let waits = Mutex::new(Vec::new());
        let mut out = Vec::new();
        let status = stream_sse(&mut out, |_, timeout| {
            let mut waits = waits.lock().expect("waits");
            waits.push(timeout);
            let state = if waits.len() >= 3 {
                JobState::Cancelled
            } else {
                JobState::Running
            };
            Some((Vec::new(), state))
        });
        assert_eq!(status, 200);
        let text = String::from_utf8_lossy(&out);
        let heartbeat = text.find(": heartbeat\n\n").expect("heartbeat chunk");
        let end = text
            .find("data: {\"event\":\"end\",\"state\":\"cancelled\"}")
            .expect("end record");
        assert!(heartbeat < end);
        assert!(text.ends_with("0\r\n\r\n"));
        // The pump waits at most one heartbeat interval at a time.
        let waits = waits.lock().expect("waits");
        assert_eq!(waits.len(), 3);
        assert!(waits[1..]
            .iter()
            .all(|&t| t > Duration::ZERO && t <= HEARTBEAT));
    }
}
