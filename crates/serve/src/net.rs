//! A reusable HTTP/1.1 accept-pool server shell.
//!
//! `dice-serve` and the `dice-fabric` nodes share one threading model: an
//! accept loop blocked in `accept` hands sockets to a fixed pool of
//! connection workers over a bounded channel, a full channel answers
//! `503` inline (connections never pile up unbounded), and a
//! [`DrainHandle`] stops the accept loop while parked connections finish.
//! The handle sets its flag and then makes one loopback connection to the
//! listener, so the blocked `accept` returns and sees the flag; that
//! wake-up connection is dropped, never handled. [`NetServer`] owns that
//! machinery, including the per-request and accept-loop metrics; services
//! supply a [`NetHandler`] for routing. The `dice-chaos` proxy reuses the
//! bare loop, [`accept_until_drained`].

use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dice_obs::MetricRegistry;

use crate::http::{read_request, ReadError, Request, Response};

/// Accept-pool construction knobs.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Port to bind on 127.0.0.1 (`0` = ephemeral).
    pub port: u16,
    /// Connection-handler threads.
    pub conn_workers: usize,
    /// Accepted connections parked for a handler before `503`s.
    pub conn_backlog: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            port: 0,
            conn_workers: 4,
            conn_backlog: 64,
        }
    }
}

/// What a handler did with a request.
pub enum Handled {
    /// A fixed-length response for the shell to serialize.
    Respond(Response),
    /// The handler already wrote the whole response to the stream (e.g. a
    /// chunked SSE pump); the status is recorded for metrics only.
    Streamed(u16),
}

/// Routes one parsed request. The stream is available for handlers that
/// stream their own response ([`Handled::Streamed`]).
pub type NetHandler = Arc<dyn Fn(&Request, &TcpStream) -> Handled + Send + Sync>;

/// Where [`NetServer::run`] records its metrics: every name is
/// `{family}.…` in `registry`.
#[derive(Clone)]
pub struct NetMetrics {
    /// The service's registry (shared with its `/metrics` endpoint).
    pub registry: Arc<Mutex<MetricRegistry>>,
    /// Metric name prefix (`serve`, `worker`, `fabric`).
    pub family: &'static str,
}

impl NetMetrics {
    fn count(&self, event: &str) {
        let mut reg = self.registry.lock().expect("metrics poisoned");
        let id = reg.counter(&format!("{}.{event}", self.family));
        reg.inc(id);
    }

    /// One finished request: `http_requests`, its status class and the
    /// `request_micros` histogram.
    fn request(&self, status: u16, elapsed: Duration) {
        let class = match status {
            200..=299 => "http_2xx",
            400..=499 => "http_4xx",
            _ => "http_5xx",
        };
        let mut reg = self.registry.lock().expect("metrics poisoned");
        for event in ["http_requests", class] {
            let id = reg.counter(&format!("{}.{event}", self.family));
            reg.inc(id);
        }
        let hist = reg.histogram(&format!("{}.request_micros", self.family));
        reg.observe(hist, elapsed.as_micros() as u64);
    }
}

/// Stops an [`accept_until_drained`] loop from any thread. Cheap to
/// clone; every clone drains the same listener.
#[derive(Clone)]
pub struct DrainHandle {
    flag: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl DrainHandle {
    /// A handle for the accept loop on `listener`.
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn for_listener(listener: &TcpListener) -> io::Result<DrainHandle> {
        Ok(DrainHandle {
            flag: Arc::new(AtomicBool::new(false)),
            addr: listener.local_addr()?,
        })
    }

    /// Sets the drain flag, then wakes the blocked `accept` with one
    /// loopback connection. A listener that is already gone refuses the
    /// connection, which is fine: its loop has returned.
    pub fn drain(&self) {
        self.flag.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }

    /// Whether [`DrainHandle::drain`] has been called.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// Blocks in `accept` until `drain` fires, handing each accepted
/// connection to `on_conn` (which may stop the loop early with
/// [`ControlFlow::Break`]) and each accept error to `on_error`. The flag
/// is re-checked after every accept, so the drain handle's wake-up
/// connection is dropped here and never reaches `on_conn`.
pub fn accept_until_drained(
    listener: &TcpListener,
    drain: &DrainHandle,
    mut on_conn: impl FnMut(TcpStream) -> ControlFlow<()>,
    mut on_error: impl FnMut(io::Error),
) {
    while !drain.is_draining() {
        match listener.accept() {
            Ok(_) if drain.is_draining() => break,
            Ok((stream, _peer)) => {
                if on_conn(stream).is_break() {
                    break;
                }
            }
            Err(e) => on_error(e),
        }
    }
}

/// The accept-pool shell: listener + drain handle + worker pool.
pub struct NetServer {
    listener: TcpListener,
    drain: DrainHandle,
    conn_workers: usize,
    conn_backlog: usize,
}

impl NetServer {
    /// Binds `127.0.0.1:port`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(config: &NetConfig) -> io::Result<NetServer> {
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        Ok(NetServer {
            drain: DrainHandle::for_listener(&listener)?,
            listener,
            conn_workers: config.conn_workers.max(1),
            conn_backlog: config.conn_backlog.max(1),
        })
    }

    /// The bound address (useful with `port: 0`).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// The drain handle: [`DrainHandle::drain`] stops the accept loop;
    /// [`NetServer::run`] then finishes parked connections and returns.
    #[must_use]
    pub fn drain_handle(&self) -> DrainHandle {
        self.drain.clone()
    }

    /// Serves until the drain handle fires, then drains: stops
    /// accepting, finishes parked connections, joins the pool, and
    /// returns. Records `{family}.http_requests`, `.http_{2xx,4xx,5xx}`
    /// and `.request_micros` per request, and `.conns_rejected` /
    /// `.accept_errors` from the accept loop (accept errors are counted,
    /// not fatal).
    pub fn run(&self, handler: NetHandler, metrics: &NetMetrics) {
        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(self.conn_backlog);
        let rx = Arc::new(Mutex::new(rx));
        let workers: Vec<_> = (0..self.conn_workers)
            .map(|_| {
                let rx = Arc::clone(&rx);
                let handler = Arc::clone(&handler);
                let metrics = metrics.clone();
                std::thread::spawn(move || connection_worker(&rx, &handler, &metrics))
            })
            .collect();

        accept_until_drained(
            &self.listener,
            &self.drain,
            |stream| match tx.try_send(stream) {
                Ok(()) => ControlFlow::Continue(()),
                Err(TrySendError::Full(stream)) => {
                    // Inline, bounded rejection: never park more than
                    // `conn_backlog` connections.
                    reject_busy(stream);
                    metrics.count("conns_rejected");
                    ControlFlow::Continue(())
                }
                Err(TrySendError::Disconnected(_)) => ControlFlow::Break(()),
            },
            |_| metrics.count("accept_errors"),
        );

        // Drain: close the channel so workers finish parked connections
        // and exit.
        drop(tx);
        for worker in workers {
            let _ = worker.join();
        }
    }
}

/// Best-effort `503` for connections beyond the backlog bound.
pub fn reject_busy(stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let mut stream = stream;
    let _ = Response::error(503, "server busy")
        .with_header("Retry-After", "1")
        .write(&mut stream);
    let _ = stream.shutdown(Shutdown::Both);
}

fn connection_worker(
    rx: &Arc<Mutex<Receiver<TcpStream>>>,
    handler: &NetHandler,
    metrics: &NetMetrics,
) {
    loop {
        // Hold the lock only for the recv; handlers must not serialize on
        // each other while talking to clients.
        let stream = {
            let rx = rx.lock().expect("conn channel poisoned");
            rx.recv()
        };
        let Ok(stream) = stream else {
            return;
        };
        handle_connection(stream, handler, metrics);
    }
}

fn handle_connection(stream: TcpStream, handler: &NetHandler, metrics: &NetMetrics) {
    let started = Instant::now();
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let record = |status: u16| metrics.request(status, started.elapsed());
    let response = match read_request(&mut reader) {
        Ok(request) => match handler(&request, &stream) {
            Handled::Respond(response) => response,
            Handled::Streamed(status) => {
                record(status);
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
        },
        Err(ReadError::Closed) => return,
        Err(ReadError::Bad { status, msg }) => Response::error(status, msg),
        Err(ReadError::Io(_)) => return,
    };
    record(response.status);
    let mut stream = stream;
    let _ = response.write(&mut stream);
    let _ = stream.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn drain_wakes_an_idle_accept_loop_without_handling_the_wakeup() {
        let server = NetServer::bind(&NetConfig::default()).expect("bind");
        let drain = server.drain_handle();
        let handled = Arc::new(AtomicUsize::new(0));
        let handler: NetHandler = {
            let handled = Arc::clone(&handled);
            Arc::new(move |_: &Request, _: &TcpStream| {
                handled.fetch_add(1, Ordering::SeqCst);
                Handled::Respond(Response::text(200, "ok\n"))
            })
        };
        let metrics = NetMetrics {
            registry: Arc::new(Mutex::new(MetricRegistry::new())),
            family: "test",
        };
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let runner = {
            let metrics = metrics.clone();
            std::thread::spawn(move || {
                server.run(handler, &metrics);
                let _ = done_tx.send(());
            })
        };
        // Let the loop block in `accept` before draining.
        std::thread::sleep(Duration::from_millis(50));
        drain.drain();
        done_rx
            .recv_timeout(Duration::from_secs(1))
            .expect("run() returned within 1 s of drain");
        runner.join().expect("accept loop thread");
        assert_eq!(handled.load(Ordering::SeqCst), 0);
        // Nothing was counted: no request, no rejection, no accept error.
        let reg = metrics.registry.lock().expect("metrics");
        assert_eq!(reg.counters().count(), 0);
    }

    #[test]
    fn the_wakeup_connection_never_reaches_on_conn() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let drain = DrainHandle::for_listener(&listener).expect("addr");
        let waker = drain.clone();
        let wake = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.drain();
        });
        let mut conns = 0;
        accept_until_drained(
            &listener,
            &drain,
            |_| {
                conns += 1;
                ControlFlow::Continue(())
            },
            |e| panic!("accept failed: {e}"),
        );
        wake.join().expect("waker");
        assert_eq!(conns, 0);
    }
}
